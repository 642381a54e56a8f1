"""Algorithm VO-R: replacement (§5.3), including the EES345 example."""

import copy

import pytest

from repro.errors import LocalValidationError, UpdateRejectedError
from repro.core.updates.operations import Replacement
from repro.core.updates.policy import RelationPolicy, TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.structural.integrity import IntegrityChecker


@pytest.fixture
def translator(omega):
    return Translator(omega)


def course_with_everything(engine):
    """A course with grades and curriculum entries."""
    for values in engine.scan("COURSES"):
        cid = values[0]
        if engine.find_by("GRADES", ("course_id",), (cid,)) and engine.find_by(
            "CURRICULUM", ("course_id",), (cid,)
        ):
            return cid
    pytest.skip("no fully connected course in generated data")


def renamed(old_dict, new_course_id, new_dept=None):
    new = copy.deepcopy(old_dict)
    new["course_id"] = new_course_id
    for grade in new.get("GRADES", []):
        grade["course_id"] = new_course_id
    for entry in new.get("CURRICULUM", []):
        entry["course_id"] = new_course_id
    if new_dept is not None:
        new["dept_name"] = new_dept
        for dept in new.get("DEPARTMENT", []):
            dept["dept_name"] = new_dept
    return new


class TestCaseR1R2:
    def test_identical_replacement_is_noop(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        plan = translator.apply(
            university_engine, Replacement(old, old.to_dict())
        )
        assert len(plan) == 0

    def test_nonkey_change_single_replace(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        new["title"] = "Renamed Title"
        plan = translator.apply(university_engine, Replacement(old, new))
        assert plan.count("replace") == 1
        assert plan.count("insert") == plan.count("delete") == 0
        assert university_engine.get("COURSES", (cid,))[1] == "Renamed Title"

    def test_grade_change(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        new["GRADES"][0]["grade"] = "A+"
        sid = new["GRADES"][0]["student_id"]
        translator.apply(university_engine, Replacement(old, new))
        assert university_engine.get("GRADES", (cid, sid))[2] == "A+"


class TestCaseR3KeyChange:
    def test_paper_ees345_example(
        self, translator, university_engine, university_graph
    ):
        """Renaming CS345->EES345 with a brand-new department inserts
        ⟨Engineering Economic Systems⟩ into DEPARTMENT (Section 6)."""
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = renamed(
            old.to_dict(), "EES345", new_dept="Engineering Economic Systems"
        )
        plan = translator.apply(university_engine, Replacement(old, new))
        assert university_engine.get("COURSES", (cid,)) is None
        assert university_engine.get("COURSES", ("EES345",)) is not None
        assert (
            university_engine.get(
                "DEPARTMENT", ("Engineering Economic Systems",)
            )
            is not None
        )
        inserted = [op.relation for op in plan if op.kind == "insert"]
        assert "DEPARTMENT" in inserted
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )

    def test_island_keys_replaced(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        grades_before = university_engine.find_by(
            "GRADES", ("course_id",), (cid,)
        )
        old = translator.instantiate(university_engine, (cid,))
        translator.apply(
            university_engine, Replacement(old, renamed(old.to_dict(), "NEW1"))
        )
        assert university_engine.find_by("GRADES", ("course_id",), (cid,)) == []
        migrated = university_engine.find_by(
            "GRADES", ("course_id",), ("NEW1",)
        )
        assert len(migrated) == len(grades_before)

    def test_peninsula_foreign_keys_retargeted(
        self, translator, university_engine
    ):
        cid = course_with_everything(university_engine)
        n_refs = len(
            university_engine.find_by("CURRICULUM", ("course_id",), (cid,))
        )
        old = translator.instantiate(university_engine, (cid,))
        translator.apply(
            university_engine, Replacement(old, renamed(old.to_dict(), "NEW2"))
        )
        assert (
            university_engine.find_by("CURRICULUM", ("course_id",), (cid,))
            == []
        )
        assert (
            len(
                university_engine.find_by(
                    "CURRICULUM", ("course_id",), ("NEW2",)
                )
            )
            == n_refs
        )

    def test_old_department_survives(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old_dept = university_engine.get("COURSES", (cid,))[4]
        old = translator.instantiate(university_engine, (cid,))
        translator.apply(
            university_engine,
            Replacement(
                old,
                renamed(old.to_dict(), "NEW3", new_dept="Engineering Economic Systems"),
            ),
        )
        assert university_engine.get("DEPARTMENT", (old_dept,)) is not None

    def test_key_replacement_prohibited(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "COURSES", RelationPolicy(allow_key_replacement=False)
        )
        translator = Translator(omega, policy=policy)
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        with pytest.raises(LocalValidationError, match="key"):
            translator.apply(
                university_engine,
                Replacement(old, renamed(old.to_dict(), "NEW4")),
            )
        assert university_engine.get("COURSES", (cid,)) is not None

    def test_db_key_replacement_prohibited(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "COURSES",
            RelationPolicy(
                allow_key_replacement=True, allow_db_key_replacement=False
            ),
        )
        translator = Translator(omega, policy=policy)
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        with pytest.raises(UpdateRejectedError, match="database key"):
            translator.apply(
                university_engine,
                Replacement(old, renamed(old.to_dict(), "NEW5")),
            )

    def test_merge_on_conflict_requires_permission(
        self, omega, university_engine
    ):
        """R-3 where the new key already exists: the paper's dialog
        answered NO, so the merge is rejected."""
        policy = TranslatorPolicy()  # allow_merge_on_key_conflict=False
        translator = Translator(omega, policy=policy)
        ids = [v[0] for v in university_engine.scan("COURSES")]
        target, victim = ids[0], ids[1]
        old = translator.instantiate(university_engine, (victim,))
        with pytest.raises(UpdateRejectedError, match="merge"):
            translator.apply(
                university_engine,
                Replacement(old, renamed(old.to_dict(), target)),
            )

    def test_merge_on_conflict_when_allowed(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "COURSES", RelationPolicy(allow_merge_on_key_conflict=True)
        )
        policy.set_relation(
            "GRADES", RelationPolicy(allow_merge_on_key_conflict=True)
        )
        translator = Translator(omega, policy=policy)
        ids = [v[0] for v in university_engine.scan("COURSES")]
        target, victim = ids[0], ids[1]
        old = translator.instantiate(university_engine, (victim,))
        new = renamed(old.to_dict(), target)
        translator.apply(university_engine, Replacement(old, new))
        assert university_engine.get("COURSES", (victim,)) is None
        merged = university_engine.get("COURSES", (target,))
        assert merged[1] == old.root.values["title"]


class TestPropagation:
    def test_island_key_propagates_to_children(
        self, translator, university_engine
    ):
        """The caller may leave the old course_id inside GRADES tuples;
        step 2 rewrites the inherited attributes automatically."""
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        new["course_id"] = "PROP1"  # GRADES entries still carry old id
        for entry in new.get("CURRICULUM", []):
            entry["course_id"] = "PROP1"
        translator.apply(university_engine, Replacement(old, new))
        assert university_engine.find_by("GRADES", ("course_id",), (cid,)) == []
        assert university_engine.find_by(
            "GRADES", ("course_id",), ("PROP1",)
        )


class TestStateI:
    def test_retarget_reference_to_existing(self, translator, university_engine):
        """Pointing the course at another *existing* department must not
        duplicate or modify it (CASE I-3)."""
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        current = old.root.values["dept_name"]
        other = next(
            v[0]
            for v in university_engine.scan("DEPARTMENT")
            if v[0] != current
        )
        other_values = university_engine.get("DEPARTMENT", (other,))
        new = old.to_dict()
        new["dept_name"] = other
        new["DEPARTMENT"] = [
            {"dept_name": other_values[0], "building": other_values[1]}
        ]
        before = university_engine.count("DEPARTMENT")
        plan = translator.apply(university_engine, Replacement(old, new))
        assert university_engine.count("DEPARTMENT") == before
        assert all(op.relation != "DEPARTMENT" for op in plan)
        assert university_engine.get("COURSES", (cid,))[4] == other

    def test_case_i4_conflicting_values(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        new["DEPARTMENT"][0]["building"] = "Relocated Hall"
        plan = translator.apply(university_engine, Replacement(old, new))
        dept = new["DEPARTMENT"][0]["dept_name"]
        assert university_engine.get("DEPARTMENT", (dept,))[1] == "Relocated Hall"

    def test_component_removed_from_island(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        removed = new["GRADES"].pop()
        translator.apply(university_engine, Replacement(old, new))
        assert (
            university_engine.get(
                "GRADES", (cid, removed["student_id"])
            )
            is None
        )

    def test_component_added_to_island(self, translator, university_engine):
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        student = next(
            s
            for s in university_engine.scan("STUDENT")
            if university_engine.get("GRADES", (cid, s[0])) is None
        )
        new["GRADES"].append(
            {
                "course_id": cid,
                "student_id": student[0],
                "grade": "B+",
                "STUDENT": [
                    {
                        "person_id": student[0],
                        "degree_program": student[1],
                        "year": student[2],
                    }
                ],
            }
        )
        translator.apply(university_engine, Replacement(old, new))
        assert (
            university_engine.get("GRADES", (cid, student[0]))
            is not None
        )


class TestGatesAndGuards:
    def test_replacement_gate(self, omega, university_engine):
        translator = Translator(
            omega, policy=TranslatorPolicy(allow_replacement=False)
        )
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        with pytest.raises(LocalValidationError):
            translator.apply(
                university_engine, Replacement(old, old.to_dict())
            )

    def test_peninsula_key_change_prohibited(
        self, translator, university_engine
    ):
        """Changing the non-FK key part of a CURRICULUM entry is an
        ambiguous peninsula key replacement: prohibited."""
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = old.to_dict()
        new["CURRICULUM"][0]["degree"] = "BRANDNEW"
        with pytest.raises(LocalValidationError, match="peninsula"):
            translator.apply(university_engine, Replacement(old, new))

    def test_rejection_rolls_everything_back(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation("DEPARTMENT", RelationPolicy(can_modify=False))
        translator = Translator(omega, policy=policy)
        cid = course_with_everything(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        snapshot = sorted(university_engine.scan("COURSES"))
        with pytest.raises(UpdateRejectedError):
            translator.apply(
                university_engine,
                Replacement(
                    old,
                    renamed(old.to_dict(), "ROLLBACK1", new_dept="No Such Dept"),
                ),
            )
        assert sorted(university_engine.scan("COURSES")) == snapshot
