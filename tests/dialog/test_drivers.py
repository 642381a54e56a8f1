"""Full definition dialog, deletion/insertion sections, end-to-end use."""

import pytest

from repro.core.updates.operations import Replacement
from repro.core.updates.policy import ReferenceRepair
from repro.dialog.answers import ConstantAnswers, MappingAnswers
from repro.dialog.drivers import choose_translator, run_definition_dialog
from repro.errors import UpdateRejectedError
from tests.conftest import asked


class TestFullDialog:
    def test_permissive_answers(self, omega):
        policy, transcript = run_definition_dialog(
            omega, ConstantAnswers(True)
        )
        assert policy.allow_insertion
        assert policy.allow_deletion
        assert policy.allow_replacement
        sections = {q.section for q, __ in transcript.entries}
        assert sections == {"insertion", "deletion", "replacement"}

    def test_deletion_section_covers_peninsula(self, omega):
        __, transcript = run_definition_dialog(omega, ConstantAnswers(True))
        deletion_qids = asked(transcript, section="deletion")
        assert "deletion.allowed" in deletion_qids
        assert any("CURRICULUM" in qid for qid in deletion_qids)

    def test_deletion_repair_delete_choice(self, omega):
        policy, __ = run_definition_dialog(omega, ConstantAnswers(True))
        assert (
            policy.for_relation("CURRICULUM").on_reference_delete
            is ReferenceRepair.DELETE
        )

    def test_deletion_repair_prohibit_choice(self, omega):
        answers = MappingAnswers(
            {"deletion.CURRICULUM.repair_delete": False}, default=True
        )
        policy, __ = run_definition_dialog(omega, answers)
        # CURRICULUM's FK sits in its key: nullify is impossible, so a
        # "no" to deletion means prohibition.
        assert (
            policy.for_relation("CURRICULUM").on_reference_delete
            is ReferenceRepair.PROHIBIT
        )

    def test_deletion_disallowed_skips_repairs(self, omega):
        answers = MappingAnswers({"deletion.allowed": False}, default=True)
        policy, transcript = run_definition_dialog(omega, answers)
        assert not policy.allow_deletion
        assert asked(transcript, section="deletion") == [
            "deletion.allowed"
        ]


class TestNullifiableRepairQuestion:
    def test_nullify_offered_for_nullable_fk(self, university_graph):
        """When FACULTY is in the island, the COURSES.instructor_id
        reference is nullable, so the dialog offers nullification."""
        from repro.core.view_object import define_view_object

        faculty_object = define_view_object(
            university_graph,
            "fac",
            "FACULTY",
            selections={"FACULTY": ("person_id", "rank", "office")},
        )
        answers = MappingAnswers(
            {
                "deletion.COURSES.repair_delete": False,
                "deletion.COURSES.repair_nullify": True,
            },
            default=True,
        )
        policy, transcript = run_definition_dialog(faculty_object, answers)
        assert (
            policy.for_relation("COURSES").on_reference_delete
            is ReferenceRepair.NULLIFY
        )
        assert "deletion.COURSES.repair_nullify" in asked(transcript)


class TestChooseTranslator:
    def test_translator_enforces_dialog_choices(
        self, omega, university_engine
    ):
        """The paper's closing example: a translator that forbids
        modifying DEPARTMENT rejects the EES345 replacement."""
        answers = MappingAnswers(
            {"modify.DEPARTMENT.allowed": False}, default=True
        )
        translator, __ = choose_translator(omega, answers)
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        old = translator.instantiate(university_engine, (course_id,))
        new = old.to_dict()
        new["dept_name"] = "Engineering Economic Systems"
        new["DEPARTMENT"] = [
            {
                "dept_name": "Engineering Economic Systems",
                "building": "Terman",
            }
        ]
        with pytest.raises(UpdateRejectedError):
            translator.apply(university_engine, Replacement(old, new), "replace")
        assert (
            university_engine.get(
                "DEPARTMENT", ("Engineering Economic Systems",)
            )
            is None
        )

    def test_permissive_translator_accepts(self, omega, university_engine):
        translator, __ = choose_translator(omega, ConstantAnswers(True))
        course_id = next(iter(university_engine.scan("COURSES")))[0]
        old = translator.instantiate(university_engine, (course_id,))
        new = old.to_dict()
        new["title"] = "After Dialog"
        translator.apply(university_engine, Replacement(old, new), "replace")
        assert university_engine.get("COURSES", (course_id,))[1] == "After Dialog"

    def test_amortization(self, omega, university_engine):
        """One dialog, many updates — no further questions."""
        source = ConstantAnswers(True)
        translator, transcript = choose_translator(omega, source)
        asked_before = len(transcript)
        for values in list(university_engine.scan("COURSES"))[:3]:
            old = translator.instantiate(university_engine, (values[0],))
            new = old.to_dict()
            new["units"] = (new["units"] % 5) + 1
            translator.apply(university_engine, Replacement(old, new), "replace")
        assert len(transcript) == asked_before
