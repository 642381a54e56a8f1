"""Algorithm VO-CD: complete deletion (§5.1)."""

import pytest

from repro.errors import UpdateError, UpdateRejectedError
from repro.core.updates.operations import CompleteDeletion
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.core.updates.translator import Translator
from repro.structural.integrity import IntegrityChecker


@pytest.fixture
def translator(omega):
    return Translator(omega)


def pick_course(engine, with_curriculum=True):
    """A course id that has grades and (optionally) curriculum entries."""
    for values in engine.scan("COURSES"):
        course_id = values[0]
        has_grades = engine.find_by("GRADES", ("course_id",), (course_id,))
        has_curriculum = engine.find_by(
            "CURRICULUM", ("course_id",), (course_id,)
        )
        if has_grades and (bool(has_curriculum) == with_curriculum):
            return course_id
    pytest.skip("no suitable course in generated data")


class TestIslandDeletion:
    def test_pivot_tuple_deleted(self, translator, university_engine):
        course_id = pick_course(university_engine)
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        assert university_engine.get("COURSES", (course_id,)) is None

    def test_island_grades_deleted(self, translator, university_engine):
        course_id = pick_course(university_engine)
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        assert (
            university_engine.find_by("GRADES", ("course_id",), (course_id,))
            == []
        )

    def test_students_survive(self, translator, university_engine):
        course_id = pick_course(university_engine)
        sids = [
            v[1]
            for v in university_engine.find_by(
                "GRADES", ("course_id",), (course_id,)
            )
        ]
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        for sid in sids:
            assert university_engine.get("STUDENT", (sid,)) is not None

    def test_department_survives(self, translator, university_engine):
        course_id = pick_course(university_engine)
        dept = university_engine.get("COURSES", (course_id,))[4]
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        assert university_engine.get("DEPARTMENT", (dept,)) is not None

    def test_plan_contents(self, translator, university_engine):
        course_id = pick_course(university_engine)
        n_grades = len(
            university_engine.find_by("GRADES", ("course_id",), (course_id,))
        )
        n_curriculum = len(
            university_engine.find_by(
                "CURRICULUM", ("course_id",), (course_id,)
            )
        )
        plan = translator.apply(
            university_engine, CompleteDeletion((course_id,))
        )
        # pivot + grades + curriculum repairs (AUTO resolves to DELETE
        # because course_id sits in CURRICULUM's key).
        assert plan.count("delete") == 1 + n_grades + n_curriculum

    def test_database_stays_consistent(
        self, translator, university_engine, university_graph
    ):
        course_id = pick_course(university_engine)
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )


class TestPeninsulaRepair:
    def test_curriculum_rows_removed(self, translator, university_engine):
        course_id = pick_course(university_engine, with_curriculum=True)
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        assert (
            university_engine.find_by(
                "CURRICULUM", ("course_id",), (course_id,)
            )
            == []
        )

    def test_prohibit_rolls_back(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "CURRICULUM",
            RelationPolicy(on_reference_delete=ReferenceRepair.PROHIBIT),
        )
        translator = Translator(omega, policy=policy)
        course_id = pick_course(university_engine, with_curriculum=True)
        before = university_engine.count("COURSES")
        with pytest.raises(UpdateRejectedError):
            translator.apply(university_engine, CompleteDeletion((course_id,)))
        # "the transaction cannot be completed and has to be rolled back"
        assert university_engine.count("COURSES") == before
        assert university_engine.get("COURSES", (course_id,)) is not None

    def test_nullify_repair(self, omega, university_graph, university_engine):
        # Repair the instructor reference by nullification when a
        # FACULTY-anchored entity is deleted through another object.
        from repro.core.view_object import define_view_object
        from repro.core.updates.policy import TranslatorPolicy, RelationPolicy

        faculty_object = define_view_object(
            university_graph,
            "faculty_only",
            pivot="FACULTY",
            selections={"FACULTY": ("person_id", "rank", "office")},
        )
        policy = TranslatorPolicy()
        policy.set_relation(
            "COURSES",
            RelationPolicy(on_reference_delete=ReferenceRepair.NULLIFY),
        )
        translator = Translator(faculty_object, policy=policy)
        # Find a faculty member who teaches something.
        course = next(
            v for v in university_engine.scan("COURSES") if v[5] is not None
        )
        instructor = course[5]
        translator.apply(university_engine, CompleteDeletion((instructor,)))
        refreshed = university_engine.get("COURSES", (course[0],))
        assert refreshed[5] is None

    def test_explicit_delete_policy(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "CURRICULUM",
            RelationPolicy(on_reference_delete=ReferenceRepair.DELETE),
        )
        translator = Translator(omega, policy=policy)
        course_id = pick_course(university_engine, with_curriculum=True)
        translator.apply(university_engine, CompleteDeletion((course_id,)))
        assert (
            university_engine.find_by(
                "CURRICULUM", ("course_id",), (course_id,)
            )
            == []
        )


class TestGateAndErrors:
    def test_deletion_gate(self, omega, university_engine):
        from repro.errors import LocalValidationError

        translator = Translator(
            omega, policy=TranslatorPolicy(allow_deletion=False)
        )
        course_id = pick_course(university_engine)
        with pytest.raises(LocalValidationError):
            translator.apply(university_engine, CompleteDeletion((course_id,)))

    def test_missing_instance(self, translator, university_engine):
        with pytest.raises(UpdateError):
            translator.apply(university_engine, CompleteDeletion(("GHOST",)))

    def test_delete_by_instance(self, translator, university_engine):
        course_id = pick_course(university_engine)
        instance = translator.instantiate(university_engine, (course_id,))
        translator.apply(university_engine, CompleteDeletion(instance))
        assert university_engine.get("COURSES", (course_id,)) is None


class TestCascadesDeep:
    def test_hospital_chart_deletion(self, chart, hospital_engine, hospital_graph):
        translator = Translator(chart)
        plan = translator.apply(hospital_engine, CompleteDeletion((100,)))
        assert hospital_engine.get("PATIENT", (100,)) is None
        assert (
            hospital_engine.find_by("VISIT", ("patient_id",), (100,)) == []
        )
        assert (
            hospital_engine.find_by("DIAGNOSIS", ("patient_id",), (100,))
            == []
        )
        assert (
            hospital_engine.find_by("PRESCRIPTION", ("patient_id",), (100,))
            == []
        )
        # Physicians and medications (referenced, outside island) survive.
        assert hospital_engine.count("PHYSICIAN") == 8
        assert hospital_engine.count("MEDICATION") == 6
        assert plan.count("insert") == 0

    def test_cad_deletion_cascades_subset(self, bom, cad_engine):
        translator = Translator(bom)
        released = next(iter(cad_engine.scan("RELEASED_ASSEMBLY")))[0]
        translator.apply(cad_engine, CompleteDeletion((released,)))
        assert cad_engine.get("ASSEMBLY", (released,)) is None
        assert cad_engine.get("RELEASED_ASSEMBLY", (released,)) is None
        assert cad_engine.find_by("COMPONENT", ("asm_id",), (released,)) == []
