"""Step 2: in-object propagation of connecting attributes."""

import pytest

from repro.core.dependency_island import analyze_island
from repro.core.instance import Instance, build_instance
from repro.core.updates.compiled import CompiledProgram


def propagate_within_object(view_object, new_instance):
    """Step 2 over a whole instance: connecting attributes rewritten
    downward into a new Instance; the caller's is left untouched."""
    program = CompiledProgram(view_object, analyze_island(view_object))
    return Instance(
        view_object, program.propagated(program.root, new_instance.root)
    )


@pytest.fixture
def instance_data():
    return {
        "course_id": "NEW9",
        "title": "t",
        "units": 1,
        "level": "graduate",
        "dept_name": "Physics",
        "DEPARTMENT": [{"dept_name": "STALE", "building": "b"}],
        "CURRICULUM": [
            {"degree": "MSCS", "course_id": "STALE", "category": "required"}
        ],
        "GRADES": [
            {
                "course_id": "STALE",
                "student_id": 7,
                "grade": "A",
                "STUDENT": [
                    {"person_id": 99, "degree_program": "MSCS", "year": 1}
                ],
            }
        ],
    }


def test_island_children_inherit_new_key(omega, instance_data):
    instance = build_instance(omega, instance_data)
    propagated = propagate_within_object(omega, instance)
    grades = propagated.tuples_at("GRADES")
    assert grades[0]["course_id"] == "NEW9"


def test_peninsula_foreign_key_rewritten(omega, instance_data):
    instance = build_instance(omega, instance_data)
    propagated = propagate_within_object(omega, instance)
    assert propagated.tuples_at("CURRICULUM")[0]["course_id"] == "NEW9"


def test_referenced_child_key_rewritten(omega, instance_data):
    instance = build_instance(omega, instance_data)
    propagated = propagate_within_object(omega, instance)
    assert propagated.tuples_at("DEPARTMENT")[0]["dept_name"] == "Physics"


def test_grandchild_inherits_through_parent(omega, instance_data):
    """STUDENT hangs off GRADES through student_id: the STUDENT tuple's
    person_id must follow the grade's student_id."""
    instance = build_instance(omega, instance_data)
    propagated = propagate_within_object(omega, instance)
    grade = propagated.tuples_at("GRADES")[0]
    student = grade.child_tuples("STUDENT")[0]
    assert student["person_id"] == grade["student_id"] == 7


def test_original_instance_untouched(omega, instance_data):
    instance = build_instance(omega, instance_data)
    propagate_within_object(omega, instance)
    assert instance.tuples_at("GRADES")[0]["course_id"] == "STALE"


def test_composite_paths_skipped(omega_prime):
    """ω′'s STUDENT edge collapses two connections; no instance-level
    propagation is possible (the GRADES linkage lives in the database)."""
    instance = build_instance(
        omega_prime,
        {
            "course_id": "C1",
            "title": "t",
            "units": 1,
            "level": "graduate",
            "instructor_id": None,
            "FACULTY": [],
            "STUDENT": [
                {"person_id": 3, "degree_program": "MSCS", "year": 1}
            ],
        },
    )
    propagated = propagate_within_object(omega_prime, instance)
    assert propagated.tuples_at("STUDENT")[0]["person_id"] == 3
