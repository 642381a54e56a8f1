"""Step 4: global integrity maintenance primitives.

Driven through the compiled program's ``maintain_*`` passes; under the
directory's ``interpreted`` parameter those are the reference walk's
(``tests/reference_translate.py``), so each test pins both.
"""

import pytest

from repro.errors import UpdateRejectedError
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.structural.integrity import IntegrityChecker


@pytest.fixture
def ctx(omega, university_engine):
    return TranslationContext(omega, university_engine, TranslatorPolicy())


def program(ctx):
    return CompiledProgram(ctx.view_object, ctx.analysis)


def course_with_grades(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values
    pytest.skip("no course with grades")


class TestDeletionMaintenance:
    def test_cascade_to_owned(self, ctx, university_engine):
        course = course_with_grades(university_engine)
        ctx.delete("COURSES", (course[0],), reason="seed")
        program(ctx).maintain_after_deletions(ctx)
        assert (
            university_engine.find_by("GRADES", ("course_id",), (course[0],))
            == []
        )

    def test_cascade_is_transitive(
        self, chart, hospital_engine, hospital_graph
    ):
        ctx = TranslationContext(
            chart, hospital_engine, TranslatorPolicy()
        )
        ctx.delete("PATIENT", (101,), reason="seed")
        program(ctx).maintain_after_deletions(ctx)
        assert hospital_engine.find_by("VISIT", ("patient_id",), (101,)) == []
        assert (
            hospital_engine.find_by("DIAGNOSIS", ("patient_id",), (101,))
            == []
        )
        assert IntegrityChecker(hospital_graph).is_consistent(hospital_engine)

    def test_subset_cascade(self, bom, cad_engine):
        ctx = TranslationContext(bom, cad_engine, TranslatorPolicy())
        released = next(iter(cad_engine.scan("RELEASED_ASSEMBLY")))[0]
        ctx.delete("ASSEMBLY", (released,), reason="seed")
        program(ctx).maintain_after_deletions(ctx)
        assert cad_engine.get("RELEASED_ASSEMBLY", (released,)) is None

    def test_reference_repair_auto_deletes_key_fk(self, ctx, university_engine):
        course = course_with_grades(university_engine)
        university_engine.insert(
            "CURRICULUM",
            {"degree": "TESTDEG", "course_id": course[0], "category": "x"},
        )
        ctx.delete("COURSES", (course[0],), reason="seed")
        program(ctx).maintain_after_deletions(ctx)
        assert (
            university_engine.find_by(
                "CURRICULUM", ("course_id",), (course[0],)
            )
            == []
        )

    def test_reference_repair_auto_nullifies_nullable(
        self, university_graph, university_engine
    ):
        from repro.core.view_object import define_view_object

        faculty_object = define_view_object(
            university_graph,
            "fac",
            "FACULTY",
            selections={"FACULTY": ("person_id", "rank")},
        )
        ctx = TranslationContext(
            faculty_object, university_engine, TranslatorPolicy()
        )
        course = next(
            v for v in university_engine.scan("COURSES") if v[5] is not None
        )
        ctx.delete("FACULTY", (course[5],), reason="seed")
        program(ctx).maintain_after_deletions(ctx)
        assert university_engine.get("COURSES", (course[0],))[5] is None

    def test_prohibit_raises(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "CURRICULUM",
            RelationPolicy(on_reference_delete=ReferenceRepair.PROHIBIT),
        )
        ctx = TranslationContext(omega, university_engine, policy)
        course = course_with_grades(university_engine)
        university_engine.insert(
            "CURRICULUM",
            {"degree": "TESTDEG", "course_id": course[0], "category": "x"},
        )
        ctx.delete("COURSES", (course[0],), reason="seed")
        with pytest.raises(UpdateRejectedError):
            program(ctx).maintain_after_deletions(ctx)


def lenient_completer(relation, schema, partial):
    """Fabricate defaults for skeleton tuples in these tests."""
    completed = dict(partial)
    for attribute in schema.attributes:
        if attribute.name in completed:
            continue
        if attribute.nullable:
            completed[attribute.name] = None
        elif attribute.domain.name == "text":
            completed[attribute.name] = "?"
        else:
            completed[attribute.name] = 0
    return completed


@pytest.fixture
def lenient_ctx(omega, university_engine):
    return TranslationContext(
        omega,
        university_engine,
        TranslatorPolicy(completer=lenient_completer),
    )


class TestInsertionMaintenance:
    def test_missing_owner_inserted(self, lenient_ctx, university_engine):
        lenient_ctx.insert("GRADES", ("NEWC1", 1001, "A"), reason="seed")
        # 1001 is not a student in the generated data; NEWC1 not a course.
        program(lenient_ctx).maintain_after_insertions(lenient_ctx)
        assert university_engine.get("COURSES", ("NEWC1",)) is not None
        assert university_engine.get("STUDENT", (1001,)) is not None

    def test_recursion_to_people(self, lenient_ctx, university_engine):
        lenient_ctx.insert("GRADES", ("NEWC2", 777777, "A"), reason="seed")
        program(lenient_ctx).maintain_after_insertions(lenient_ctx)
        assert university_engine.get("PEOPLE", (777777,)) is not None

    def test_default_completer_rejects_unskeletonizable(
        self, ctx, university_engine
    ):
        """With the default null completer, fabricating a COURSES owner
        is impossible (title is non-nullable) and must be rejected."""
        ctx.insert("GRADES", ("NEWC9", 1001, "A"), reason="seed")
        with pytest.raises(UpdateRejectedError, match="title"):
            program(ctx).maintain_after_insertions(ctx)

    def test_missing_reference_inserted(self, ctx, university_engine):
        ctx.insert(
            "COURSES",
            ("NEWC3", "t", 1, "graduate", "Mystery Dept", None),
            reason="seed",
        )
        program(ctx).maintain_after_insertions(ctx)
        assert university_engine.get("DEPARTMENT", ("Mystery Dept",)) is not None

    def test_null_reference_needs_nothing(self, ctx, university_engine):
        before = university_engine.count("FACULTY")
        ctx.insert(
            "COURSES",
            ("NEWC4", "t", 1, "graduate", "Physics", None),
            reason="seed",
        )
        program(ctx).maintain_after_insertions(ctx)
        assert university_engine.count("FACULTY") == before

    def test_replacement_with_changed_fk_checked(self, ctx, university_engine):
        course = next(iter(university_engine.scan("COURSES")))
        new_values = course[:4] + ("Phantom Dept",) + course[5:]
        ctx.replace("COURSES", (course[0],), new_values, reason="seed")
        program(ctx).maintain_after_insertions(ctx)
        assert university_engine.get("DEPARTMENT", ("Phantom Dept",)) is not None


class TestKeyChangeMaintenance:
    def test_references_retargeted(self, ctx, university_engine):
        course = course_with_grades(university_engine)
        refs = university_engine.find_by(
            "CURRICULUM", ("course_id",), (course[0],)
        )
        new_values = ("RENAMED",) + course[1:]
        ctx.replace("COURSES", (course[0],), new_values, reason="seed")
        program(ctx).maintain_after_key_changes(ctx)
        assert (
            len(
                university_engine.find_by(
                    "CURRICULUM", ("course_id",), ("RENAMED",)
                )
            )
            == len(refs)
        )

    def test_owned_tuples_follow_key(self, ctx, university_engine):
        course = course_with_grades(university_engine)
        grades = university_engine.find_by(
            "GRADES", ("course_id",), (course[0],)
        )
        ctx.replace(
            "COURSES", (course[0],), ("RENAMED2",) + course[1:], reason="seed"
        )
        program(ctx).maintain_after_key_changes(ctx)
        assert len(
            university_engine.find_by("GRADES", ("course_id",), ("RENAMED2",))
        ) == len(grades)

    def test_retarget_blocked_by_policy(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation("CURRICULUM", RelationPolicy(can_modify=False))
        ctx = TranslationContext(omega, university_engine, policy)
        course = course_with_grades(university_engine)
        if not university_engine.find_by(
            "CURRICULUM", ("course_id",), (course[0],)
        ):
            university_engine.insert(
                "CURRICULUM",
                {"degree": "D", "course_id": course[0], "category": "x"},
            )
        ctx.replace(
            "COURSES", (course[0],), ("RENAMED3",) + course[1:], reason="seed"
        )
        with pytest.raises(UpdateRejectedError):
            program(ctx).maintain_after_key_changes(ctx)

    def test_chained_key_propagation(self, chart, hospital_engine):
        """Re-keying a patient propagates through VISIT to DIAGNOSIS,
        PRESCRIPTION, and LAB_RESULT (the work list runs to fixpoint)."""
        ctx = TranslationContext(chart, hospital_engine, TranslatorPolicy())
        patient = hospital_engine.get("PATIENT", (100,))
        ctx.replace("PATIENT", (100,), (55555,) + patient[1:], reason="seed")
        program(ctx).maintain_after_key_changes(ctx)
        assert hospital_engine.find_by("VISIT", ("patient_id",), (100,)) == []
        assert hospital_engine.find_by(
            "DIAGNOSIS", ("patient_id",), (100,)
        ) == []
        assert len(
            hospital_engine.find_by("VISIT", ("patient_id",), (55555,))
        ) == 3
