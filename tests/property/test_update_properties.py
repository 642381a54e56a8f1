"""Property tests on the update-translation invariants.

Whatever instance is inserted: (a) structural integrity holds after
every successful translation, (b) insert followed by delete restores
the exact database state, and (c) a rejected update leaves no trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.updates.operations import CompleteDeletion, CompleteInsertion
from repro.core.updates.translator import Translator
from repro.errors import ReproError
from repro.relational.memory_engine import MemoryEngine
from repro.structural.integrity import IntegrityChecker
from repro.workloads.figures import course_info_object
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.conftest import sized

GRAPH = university_schema()
OMEGA = course_info_object(GRAPH)
CHECKER = IntegrityChecker(GRAPH)


def fresh_engine():
    engine = MemoryEngine()
    GRAPH.install(engine)
    populate_university(
        engine, sized(UniversityConfig(students=8, courses=5), faculty=3, staff=1)
    )
    return engine


course_ids = st.text(
    alphabet="ABCXYZ", min_size=2, max_size=5
).map(lambda s: "Q" + s)

grades_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.sampled_from(["A", "B", "C", "F"]),
    ),
    max_size=4,
    unique_by=lambda t: t[0],
)


def instance_for(course_id, units, level, grades):
    return {
        "course_id": course_id,
        "title": f"Generated {course_id}",
        "units": units,
        "level": level,
        "dept_name": "Physics",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [
            {
                "course_id": course_id,
                "student_id": 1000 + sid,
                "grade": grade,
                "STUDENT": [
                    {
                        "person_id": 1000 + sid,
                        "degree_program": "GEN",
                        "year": 1,
                    }
                ],
            }
            for sid, grade in grades
        ],
    }


@given(
    course_id=course_ids,
    units=st.integers(min_value=1, max_value=6),
    level=st.sampled_from(["graduate", "undergraduate"]),
    grades=grades_lists,
)
@settings(max_examples=25, deadline=None)
def test_insert_keeps_integrity(course_id, units, level, grades):
    engine = fresh_engine()
    translator = Translator(OMEGA)
    try:
        translator.apply(
            engine,
            CompleteInsertion(instance_for(course_id, units, level, grades)), "insert",
        )
    except ReproError:
        return  # rejected updates are covered by the rollback property
    assert CHECKER.is_consistent(engine)


@given(
    course_id=course_ids,
    units=st.integers(min_value=1, max_value=6),
    grades=grades_lists,
)
@settings(max_examples=25, deadline=None)
def test_insert_then_delete_roundtrip(course_id, units, grades):
    engine = fresh_engine()
    before = {
        name: sorted(engine.scan(name)) for name in GRAPH.relation_names
    }
    translator = Translator(OMEGA)
    try:
        translator.apply(
            engine,
            CompleteInsertion(
                instance_for(course_id, units, "graduate", grades)
            ), "insert",
        )
    except ReproError:
        return
    translator.apply(engine, CompleteDeletion((course_id,)), "delete")
    # Inserted STUDENT/PEOPLE skeletons survive deletion of the course
    # (they are outside the island), so compare island relations plus
    # the peninsulas only.
    for name in ("COURSES", "GRADES", "CURRICULUM", "DEPARTMENT"):
        assert sorted(engine.scan(name)) == before[name], name
    assert CHECKER.is_consistent(engine)


@given(
    course_id=course_ids,
    grades=grades_lists,
)
@settings(max_examples=25, deadline=None)
def test_rejected_update_leaves_no_trace(course_id, grades):
    from repro.core.updates.policy import RelationPolicy, TranslatorPolicy

    engine = fresh_engine()
    policy = TranslatorPolicy()
    policy.set_relation("STUDENT", RelationPolicy(can_modify=False))
    policy.set_relation("PEOPLE", RelationPolicy(can_modify=False))
    translator = Translator(OMEGA, policy=policy)
    before = {
        name: sorted(engine.scan(name)) for name in GRAPH.relation_names
    }
    try:
        translator.apply(
            engine,
            CompleteInsertion(instance_for(course_id, 3, "graduate", grades)), "insert",
        )
    except ReproError:
        after = {
            name: sorted(engine.scan(name))
            for name in GRAPH.relation_names
        }
        assert after == before
