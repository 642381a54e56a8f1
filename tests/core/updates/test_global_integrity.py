"""Step 4: global integrity maintenance primitives.

Driven through the compiled program's ``maintain_*`` passes; under the
directory's ``interpreted`` parameter those are the reference walk's
(``tests/reference_translate.py``), so each test pins both.
"""

import pytest

from repro.errors import UpdateRejectedError
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext
from repro.core.updates.operations import PartialUpdate
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.core.view_object import define_view_object
from repro.penguin import Penguin
from repro.relational.operations import Insert, Replace
from repro.structural.integrity import IntegrityChecker
from repro.workloads.university import populate_university, university_schema
from tests.conftest import completing


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
        completing(lenient_completer),
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

    def test_replacement_skeletons_get_their_dependencies(
        self, lenient_ctx, university_engine
    ):
        """A replaced tuple's new reference inserts a FACULTY skeleton,
        and the same pass gives that skeleton its general PEOPLE tuple:
        "the process must be applied recursively"."""
        course = next(iter(university_engine.scan("COURSES")))
        new_values = course[:5] + (99999,)
        lenient_ctx.replace("COURSES", (course[0],), new_values, reason="seed")
        program(lenient_ctx).maintain_after_insertions(lenient_ctx)
        assert university_engine.get("FACULTY", (99999,)) is not None
        assert university_engine.get("PEOPLE", (99999,)) is not None


COURSE_ATTRIBUTES = (
    "course_id", "title", "units", "level", "dept_name", "instructor_id",
)
UNKNOWN_INSTRUCTOR = 99999


class TestRecursionAfterReplacement:
    """A COURSES tuple re-pointed at an unknown instructor needs a
    FACULTY skeleton and, through it, a PEOPLE one — whichever request
    replaced it: VO-R, VO-CI's CASE 3 or a partial update all commit
    the same operations for the COURSES tuple."""

    @pytest.fixture
    def session(self):
        session = Penguin(university_schema())
        populate_university(session.engine)
        session.register_object(
            define_view_object(
                session.graph, "course_row", pivot="COURSES",
                selections={"COURSES": COURSE_ATTRIBUTES},
            )
        )
        session.register_object(
            define_view_object(
                session.graph, "curriculum_entry", pivot="CURRICULUM",
                selections={
                    "CURRICULUM": ("degree", "course_id", "category"),
                    "COURSES": COURSE_ATTRIBUTES,
                },
            )
        )
        for name in ("course_row", "curriculum_entry"):
            session.set_policy(
                name, completing(lenient_completer)
            )
        return session

    @staticmethod
    def repointed(session):
        """(course row, its dict with the unknown instructor)."""
        course_id = sorted(v[0] for v in session.engine.scan("COURSES"))[0]
        row = session.get("course_row", (course_id,))
        new = dict(row.to_dict(), instructor_id=UNKNOWN_INSTRUCTOR)
        return row, new

    @staticmethod
    def expected(new):
        course = tuple(new[name] for name in COURSE_ATTRIBUTES)
        return [
            Replace("COURSES", course[:1], course),
            Insert("FACULTY", (UNKNOWN_INSTRUCTOR, "?", None)),
            Insert("PEOPLE", (UNKNOWN_INSTRUCTOR, None, None, None)),
        ]

    def test_replacement(self, session):
        row, new = self.repointed(session)
        plan = session.replace("course_row", row.key, new)
        assert plan.operations == self.expected(new)

    def test_partial_update(self, session):
        row, new = self.repointed(session)
        plan = session.apply_plan_batch(
            "course_row",
            [PartialUpdate(row, "COURSES", row.to_dict(), new)],
        )
        assert plan.operations == self.expected(new)
        assert session.is_consistent()

    def test_case3_insertion(self, session):
        row, new = self.repointed(session)
        plan = session.insert(
            "curriculum_entry",
            {
                "degree": "NEWDEG",
                "course_id": new["course_id"],
                "category": "required",
                "COURSES": [new],
            },
        )
        assert plan.operations[0] == Insert(
            "CURRICULUM", ("NEWDEG", new["course_id"], "required")
        )
        assert plan.operations[1:] == self.expected(new)
        assert session.is_consistent()


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
