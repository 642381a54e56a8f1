"""Partial update operations on single components."""

import pytest

from repro.errors import LocalValidationError, UpdateRejectedError
from repro.core.updates.operations import (
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
)
from repro.core.updates.policy import RelationPolicy, TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.structural.integrity import IntegrityChecker
from tests.conftest import completing


@pytest.fixture
def translator(omega):
    return Translator(omega)


def course_with_grades(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    pytest.skip("no course with grades")


def unenrolled_student(engine, cid):
    return next(
        s
        for s in engine.scan("STUDENT")
        if engine.get("GRADES", (cid, s[0])) is None
    )


class TestPartialInsertion:
    def test_add_grade(self, translator, university_engine):
        cid = course_with_grades(university_engine)
        student = unenrolled_student(university_engine, cid)
        plan = translator.apply(
            university_engine,
            PartialInsertion(
                (cid,),
                "GRADES",
                {"course_id": cid, "student_id": student[0], "grade": "A"},
            ), "partial_insert",
        )
        assert university_engine.get("GRADES", (cid, student[0])) is not None
        assert plan.count("insert") == 1

    def test_inherited_key_filled_from_pivot(
        self, translator, university_engine
    ):
        """The parent-side connecting attribute may be omitted: partial
        insertion inherits it from the instance's pivot."""
        cid = course_with_grades(university_engine)
        student = unenrolled_student(university_engine, cid)
        translator.apply(
            university_engine,
            PartialInsertion(
                (cid,),
                "GRADES",
                {"course_id": "IGNORED", "student_id": student[0], "grade": "B"},
            ), "partial_insert",
        )
        assert university_engine.get("GRADES", (cid, student[0])) is not None

    def test_duplicate_island_component_rejected(
        self, translator, university_engine
    ):
        cid = course_with_grades(university_engine)
        grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
        with pytest.raises(UpdateRejectedError, match="already part"):
            translator.apply(
                university_engine,
                PartialInsertion(
                    (cid,),
                    "GRADES",
                    {
                        "course_id": cid,
                        "student_id": grade[1],
                        "grade": grade[2],
                    },
                ), "partial_insert",
            )

    def test_partial_insert_triggers_global_integrity(
        self, omega, university_engine, university_graph
    ):
        def completer(relation, schema, partial):
            completed = dict(partial)
            for attribute in schema.attributes:
                if attribute.name not in completed:
                    if attribute.nullable:
                        completed[attribute.name] = None
                    elif attribute.domain.name == "text":
                        completed[attribute.name] = "?"
                    else:
                        completed[attribute.name] = 0
            return completed

        translator = Translator(
            omega,
            policy=completing(completer),
        )
        cid = course_with_grades(university_engine)
        translator.apply(
            university_engine,
            PartialInsertion(
                (cid,),
                "GRADES",
                {"course_id": cid, "student_id": 888888, "grade": "C"},
            ), "partial_insert",
        )
        assert university_engine.get("STUDENT", (888888,)) is not None
        assert university_engine.get("PEOPLE", (888888,)) is not None
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )

    def test_pivot_partial_insert_redirected(self, translator, university_engine):
        cid = course_with_grades(university_engine)
        with pytest.raises(LocalValidationError, match="complete insertion"):
            translator.apply(
                university_engine,
                PartialInsertion((cid,), "COURSES", {"course_id": "X"}), "partial_insert",
            )


class TestPartialDeletion:
    def test_remove_grade(self, translator, university_engine):
        cid = course_with_grades(university_engine)
        grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
        translator.apply(
            university_engine,
            PartialDeletion(
                (cid,),
                "GRADES",
                {"course_id": cid, "student_id": grade[1], "grade": grade[2]},
            ), "partial_delete",
        )
        assert university_engine.get("GRADES", (cid, grade[1])) is None
        # The student survives (outside the island).
        assert university_engine.get("STUDENT", (grade[1],)) is not None

    def test_sever_nullable_reference(
        self, university_graph, university_engine
    ):
        """Partial deletion of an outside referenced component nullifies
        the parent's foreign key when it is nullable."""
        from repro.core.view_object import define_view_object

        staffing = define_view_object(
            university_graph,
            "staffing",
            "COURSES",
            selections={
                "COURSES": (
                    "course_id", "title", "units", "level", "instructor_id",
                ),
                "FACULTY": ("person_id", "rank", "office"),
            },
        )
        translator = Translator(staffing)
        course = next(
            v for v in university_engine.scan("COURSES") if v[5] is not None
        )
        faculty = university_engine.get("FACULTY", (course[5],))
        translator.apply(
            university_engine,
            PartialDeletion(
                (course[0],),
                "FACULTY",
                {
                    "person_id": faculty[0],
                    "rank": faculty[1],
                    "office": faculty[2],
                },
            ), "partial_delete",
        )
        assert university_engine.get("COURSES", (course[0],))[5] is None
        assert university_engine.get("FACULTY", (faculty[0],)) is not None

    def test_non_severable_outside_deletion_rejected(
        self, translator, university_engine
    ):
        cid = course_with_grades(university_engine)
        grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
        student = university_engine.get("STUDENT", (grade[1],))
        with pytest.raises(UpdateRejectedError, match="ambiguous"):
            translator.apply(
                university_engine,
                PartialDeletion(
                    (cid,),
                    "STUDENT",
                    {
                        "person_id": student[0],
                        "degree_program": student[1],
                        "year": student[2],
                    },
                ), "partial_delete",
            )


class TestPartialUpdate:
    def test_change_grade_value(self, translator, university_engine):
        cid = course_with_grades(university_engine)
        grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
        translator.apply(
            university_engine,
            PartialUpdate(
                (cid,),
                "GRADES",
                {"course_id": cid, "student_id": grade[1], "grade": grade[2]},
                {"course_id": cid, "student_id": grade[1], "grade": "A+"},
            ), "partial_update",
        )
        assert university_engine.get("GRADES", (cid, grade[1]))[2] == "A+"

    def test_key_change_rejected(self, translator, university_engine):
        cid = course_with_grades(university_engine)
        grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
        with pytest.raises(LocalValidationError, match="keys"):
            translator.apply(
                university_engine,
                PartialUpdate(
                    (cid,),
                    "GRADES",
                    {"course_id": cid, "student_id": grade[1], "grade": grade[2]},
                    {"course_id": cid, "student_id": 999, "grade": grade[2]},
                ), "partial_update",
            )

    def test_outside_update_respects_policy(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "STUDENT", RelationPolicy(can_replace_existing=False)
        )
        translator = Translator(omega, policy=policy)
        cid = course_with_grades(university_engine)
        grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
        student = university_engine.get("STUDENT", (grade[1],))
        with pytest.raises(UpdateRejectedError):
            translator.apply(
                university_engine,
                PartialUpdate(
                    (cid,),
                    "STUDENT",
                    {
                        "person_id": student[0],
                        "degree_program": student[1],
                        "year": student[2],
                    },
                    {
                        "person_id": student[0],
                        "degree_program": "CHANGED",
                        "year": student[2],
                    },
                ), "partial_update",
            )

    def test_composite_path_component_rejected(
        self, omega_prime, university_engine
    ):
        translator = Translator(omega_prime)
        cid = next(iter(university_engine.scan("COURSES")))[0]
        with pytest.raises(LocalValidationError, match="collapses"):
            translator.apply(
                university_engine,
                PartialUpdate(
                    (cid,),
                    "STUDENT",
                    {"person_id": 1, "degree_program": "a", "year": 1},
                    {"person_id": 1, "degree_program": "b", "year": 1},
                ), "partial_update",
            )
