"""The person-pivot object: subset connections inside the island."""

import copy

import pytest

from repro.core.dependency_island import NodeRole, analyze_island
from repro.core.instantiation import Instantiator
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.policy import ReferenceRepair, RelationPolicy, TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.core.view_object import define_view_object
from repro.structural.integrity import IntegrityChecker
from tests.core.test_dependency_island import with_role


@pytest.fixture
def person_vo(university_graph):
    """A person-centered object (not a paper figure, but the natural
    third perspective on the Figure 1 schema).

    Its dependency island contains the *subset* specializations —
    PEOPLE ==>o STUDENT/FACULTY/STAFF — and, through STUDENT's forward
    ownership, the student's GRADES: deleting a person removes their
    specialization tuples and grades; re-keying a person propagates
    through all of them.
    """
    return define_view_object(
        university_graph,
        "person_record",
        pivot="PEOPLE",
        selections={
            "PEOPLE": ("person_id", "name", "dept_name"),
            "STUDENT": ("person_id", "degree_program", "year"),
            "FACULTY": ("person_id", "rank", "office"),
            "STAFF": ("person_id", "position", "salary"),
            "GRADES": ("course_id", "student_id", "grade"),
            "DEPARTMENT": ("dept_name", "building"),
        },
    )


@pytest.fixture
def translator(person_vo):
    # Deleting people may orphan courses they instruct: the nullable
    # instructor reference is nullified (Definition 2.3's option).
    policy = TranslatorPolicy()
    policy.set_relation(
        "COURSES", RelationPolicy(on_reference_delete=ReferenceRepair.NULLIFY)
    )
    return Translator(person_vo, policy=policy)


def find_person(engine, specialization):
    return next(iter(engine.scan(specialization)))[0]


class TestStructure:
    def test_island_includes_subsets_and_grades(self, person_vo):
        analysis = analyze_island(person_vo)
        assert set(analysis.island_nodes) == {
            "PEOPLE", "STUDENT", "FACULTY", "STAFF", "GRADES",
        }
        assert with_role(analysis, NodeRole.OUTSIDE) == ["DEPARTMENT"]

    def test_specializations_are_at_most_one(
        self, person_vo, university_engine
    ):
        """The subset connection's cardinality is 1:[0,1]: instances bind
        at most one tuple per specialization."""
        instantiator = Instantiator(person_vo)
        for instance in instantiator.all(university_engine):
            assert instance.count_at("STUDENT") <= 1
            assert instance.count_at("FACULTY") <= 1
            assert instance.count_at("STAFF") <= 1
            # Everyone in the generated data is exactly one of the three.
            total = (
                instance.count_at("STUDENT")
                + instance.count_at("FACULTY")
                + instance.count_at("STAFF")
            )
            assert total == 1


class TestDeletion:
    def test_delete_student_cascades_grades(
        self, translator, university_engine, university_graph
    ):
        sid = find_person(university_engine, "STUDENT")
        assert university_engine.find_by("GRADES", ("student_id",), (sid,))
        translator.apply(university_engine, CompleteDeletion((sid,)))
        assert university_engine.get("PEOPLE", (sid,)) is None
        assert university_engine.get("STUDENT", (sid,)) is None
        assert university_engine.find_by("GRADES", ("student_id",), (sid,)) == []
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )

    def test_delete_faculty_nullifies_instructor(
        self, translator, university_engine
    ):
        course = next(
            v for v in university_engine.scan("COURSES") if v[5] is not None
        )
        instructor = course[5]
        translator.apply(university_engine, CompleteDeletion((instructor,)))
        assert university_engine.get("FACULTY", (instructor,)) is None
        assert university_engine.get("COURSES", (course[0],))[5] is None

    def test_courses_survive_student_deletion(
        self, translator, university_engine
    ):
        sid = find_person(university_engine, "STUDENT")
        courses = [
            v[0]
            for v in university_engine.find_by(
                "GRADES", ("student_id",), (sid,)
            )
        ]
        translator.apply(university_engine, CompleteDeletion((sid,)))
        for cid in courses:
            assert university_engine.get("COURSES", (cid,)) is not None


class TestRekey:
    def test_person_rekey_propagates_through_subset_and_grades(
        self, translator, university_engine, university_graph
    ):
        sid = find_person(university_engine, "STUDENT")
        n_grades = len(
            university_engine.find_by("GRADES", ("student_id",), (sid,))
        )
        old = translator.instantiate(university_engine, (sid,))
        new = copy.deepcopy(old.to_dict())

        def rekey(node):
            for key in ("person_id", "student_id"):
                if key in node:
                    node[key] = 555555
            for value in node.values():
                if isinstance(value, list):
                    for child in value:
                        rekey(child)
            return node

        translator.apply(university_engine, Replacement(old, rekey(new)))
        assert university_engine.get("PEOPLE", (sid,)) is None
        assert university_engine.get("PEOPLE", (555555,)) is not None
        assert university_engine.get("STUDENT", (555555,)) is not None
        migrated = university_engine.find_by(
            "GRADES", ("student_id",), (555555,)
        )
        assert len(migrated) == n_grades
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )


class TestInsertion:
    def test_insert_new_staff_member(
        self, translator, university_engine, university_graph
    ):
        translator.apply(
            university_engine,
            CompleteInsertion(
                {
                    "person_id": 777001,
                    "name": "New Hire",
                    "dept_name": "Physics",
                    "STAFF": [
                        {
                            "person_id": 777001,
                            "position": "librarian",
                            "salary": 50000,
                        }
                    ],
                    "STUDENT": [],
                    "FACULTY": [],
                    "DEPARTMENT": [],
                },
            ),
        )
        assert university_engine.get("PEOPLE", (777001,)) is not None
        assert university_engine.get("STAFF", (777001,)) is not None
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )
