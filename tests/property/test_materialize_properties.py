"""Cache/recompute equivalence under random update interleavings.

For any sequence of base-table inserts, deletes, and replaces — with
cache reads interleaved so incremental maintenance actually runs
mid-stream — a materialized view object must remain *equal* to a fresh
re-instantiation, sibling order included. The streams lean towards in-place replaces on every kind of node, which the
maintainer patches into cached instances instead of evicting them, so
a round regularly holds a patch and an eviction of the same course.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instantiation import Instantiator
from repro.materialize import LAZY
from repro.penguin import Penguin
from repro.workloads.figures import course_info_object
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.conftest import sized

CONFIG = sized(UniversityConfig(students=6, courses=4), faculty=3, staff=1)

# Replaces that keep the key and every connecting attribute, one per
# kind of node: island leaves (GRADES, CURRICULUM), the pivot (a shown
# attribute; one the object does not show), a referenced DEPARTMENT
# (fan-out to its courses) and a STUDENT reached through GRADES. The
# maintainer patches these into the cached instances.
IN_PLACE = (
    "replace_grade",
    "recategorize",
    "retitle_course",
    "change_instructor",
    "rehouse_department",
    "advance_student",
)
OP_NAMES = IN_PLACE + (
    "insert_grade",
    "delete_grade",
    "move_grade",
    "move_course_dept",
    "insert_course",
    "delete_course",
)

operations = st.lists(
    st.tuples(
        # Weighted two to one towards the in-place replaces.
        st.sampled_from(OP_NAMES + IN_PLACE),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    ),
    min_size=1,
    max_size=7,
)


def make_penguin():
    penguin = Penguin(university_schema())
    populate_university(penguin.engine, CONFIG)
    penguin.register_object(course_info_object(penguin.graph))
    return penguin


def row_map(engine, relation, values):
    return dict(zip((a.name for a in engine.schema(relation).attributes), values))


def apply_op(engine, op, a, b, counter):
    """Interpret one abstract op against current state; no-op when the
    state offers no suitable target (e.g. deleting from an empty table)."""
    courses = sorted(engine.scan("COURSES"))
    grades = sorted(engine.scan("GRADES"))
    students = sorted(engine.scan("STUDENT"))
    departments = sorted(engine.scan("DEPARTMENT"))
    faculty = sorted(engine.scan("FACULTY"))
    if op == "insert_grade":
        if not courses or not students:
            return
        course_id = courses[a % len(courses)][0]
        student_id = students[b % len(students)][0]
        if engine.get("GRADES", (course_id, student_id)) is not None:
            return
        engine.insert(
            "GRADES",
            {"course_id": course_id, "student_id": student_id, "grade": "B"},
        )
    elif op == "delete_grade":
        if not grades:
            return
        grade = grades[a % len(grades)]
        engine.delete("GRADES", (grade[0], grade[1]))
    elif op == "replace_grade":
        if not grades:
            return
        grade = grades[a % len(grades)]
        row = row_map(engine, "GRADES", grade)
        row["grade"] = "ACF"[b % 3]
        engine.replace("GRADES", (grade[0], grade[1]), row)
    elif op == "move_grade":
        if not grades or not courses:
            return
        grade = grades[a % len(grades)]
        target = courses[b % len(courses)][0]
        if engine.get("GRADES", (target, grade[1])) is not None:
            return
        row = row_map(engine, "GRADES", grade)
        row["course_id"] = target
        engine.replace("GRADES", (grade[0], grade[1]), row)
    elif op == "retitle_course":
        if not courses:
            return
        course = courses[a % len(courses)]
        row = row_map(engine, "COURSES", course)
        row["title"] = f"Title {b}"
        engine.replace("COURSES", (course[0],), row)
    elif op == "move_course_dept":
        if not courses or not departments:
            return
        course = courses[a % len(courses)]
        row = row_map(engine, "COURSES", course)
        row["dept_name"] = departments[b % len(departments)][0]
        engine.replace("COURSES", (course[0],), row)
    elif op == "insert_course":
        if not departments:
            return
        course_id = f"NEW{counter}"
        engine.insert(
            "COURSES",
            {
                "course_id": course_id,
                "title": "Synthetic",
                "units": 1 + b % 5,
                "level": ("undergraduate", "graduate")[b % 2],
                "dept_name": departments[a % len(departments)][0],
                "instructor_id": None,
            },
        )
    elif op == "delete_course":
        if not courses:
            return
        course = courses[a % len(courses)]
        # Engine-level delete: owned grades become orphans, which simply
        # drop out of every instance — instantiation must agree.
        engine.delete("COURSES", (course[0],))
    elif op == "change_instructor":
        if not courses or not faculty:
            return
        course = courses[a % len(courses)]
        row = row_map(engine, "COURSES", course)
        row["instructor_id"] = faculty[b % len(faculty)][0]
        engine.replace("COURSES", (course[0],), row)
    elif op in ("recategorize", "rehouse_department", "advance_student"):
        relation, attribute, value = {
            "recategorize": ("CURRICULUM", "category", ("required", "elective")[b % 2]),
            "rehouse_department": ("DEPARTMENT", "building", f"Hall {b}"),
            "advance_student": ("STUDENT", "year", 1 + b % 6),
        }[op]
        rows = sorted(engine.scan(relation))
        if not rows:
            return
        row = row_map(engine, relation, rows[a % len(rows)])
        key = engine.schema(relation).key_of(rows[a % len(rows)])
        row[attribute] = value
        engine.replace(relation, key, row)


def extent(instances):
    """Each instance's ``to_dict``, by key: siblings are in key order on
    every engine, so two equal extents are equal as they are."""
    return {instance.key: instance.to_dict() for instance in instances}


@pytest.mark.parametrize("policy", [LAZY])
@settings(max_examples=30, deadline=None)
@given(ops=operations)
def test_cache_extensionally_equal_to_recompute(policy, ops):
    penguin = make_penguin()
    view = penguin.materialize("course_info", policy=policy)
    penguin.query("course_info")  # warm the cache before the stream
    instantiator = Instantiator(penguin.object("course_info"))
    for counter, (op, a, b) in enumerate(ops):
        apply_op(penguin.engine, op, a, b, counter)
        # Interleaved read: maintenance must run mid-stream, not only at
        # the end, so stale entries get every chance to leak.
        if counter % 2 == 0:
            courses = sorted(penguin.engine.scan("COURSES"))
            if courses:
                penguin.get("course_info", (courses[a % len(courses)][0],))
    assert extent(penguin.query("course_info")) == extent(
        instantiator.all(penguin.engine)
    )
    assert view.staleness() == 0
