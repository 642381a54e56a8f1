"""Algorithm VO-CI: complete insertion (§5.2)."""

import pytest

from repro.errors import LocalValidationError, UpdateRejectedError
from repro.core.updates.operations import CompleteInsertion
from repro.core.updates.policy import RelationPolicy, TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.structural.integrity import IntegrityChecker


@pytest.fixture
def translator(omega):
    return Translator(omega)


def existing_student(engine):
    return next(iter(engine.scan("STUDENT")))


def new_course(engine, course_id="CS999", student=None, dept="Computer Science"):
    data = {
        "course_id": course_id,
        "title": "View Objects",
        "units": 3,
        "level": "graduate",
        "dept_name": dept,
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }
    if dept:
        existing = engine.get("DEPARTMENT", (dept,))
        if existing is not None:
            data["DEPARTMENT"] = [
                {"dept_name": existing[0], "building": existing[1]}
            ]
        # For an unknown department the child list stays empty: global
        # integrity must insert the skeleton tuple on its own.
    if student is not None:
        data["GRADES"] = [
            {
                "course_id": course_id,
                "student_id": student[0],
                "grade": "A",
                "STUDENT": [
                    {
                        "person_id": student[0],
                        "degree_program": student[1],
                        "year": student[2],
                    }
                ],
            }
        ]
    return data


class TestCase2Insertions:
    def test_pivot_inserted(self, translator, university_engine):
        translator.apply(
            university_engine, CompleteInsertion(new_course(university_engine))
        )
        assert university_engine.get("COURSES", ("CS999",)) is not None

    def test_island_children_inserted(self, translator, university_engine):
        student = existing_student(university_engine)
        translator.apply(
            university_engine,
            CompleteInsertion(new_course(university_engine, student=student)),
        )
        assert (
            university_engine.get("GRADES", ("CS999", student[0]))
            is not None
        )

    def test_projected_out_attributes_completed(
        self, translator, university_engine
    ):
        translator.apply(
            university_engine, CompleteInsertion(new_course(university_engine))
        )
        # instructor_id was projected out of ω: completed with null.
        assert university_engine.get("COURSES", ("CS999",))[5] is None

    def test_consistency(self, translator, university_engine, university_graph):
        student = existing_student(university_engine)
        translator.apply(
            university_engine,
            CompleteInsertion(new_course(university_engine, student=student)),
        )
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )


class TestCase1Rejections:
    def test_identical_pivot_rejected(self, translator, university_engine):
        data = new_course(university_engine)
        translator.apply(university_engine, CompleteInsertion(data))
        with pytest.raises(UpdateRejectedError, match="CASE 1"):
            translator.apply(university_engine, CompleteInsertion(data))

    def test_identical_outside_tuple_is_noop(
        self, translator, university_engine
    ):
        # DEPARTMENT already exists identically: CASE 1 outside island.
        before = university_engine.count("DEPARTMENT")
        plan = translator.apply(
            university_engine, CompleteInsertion(new_course(university_engine))
        )
        assert university_engine.count("DEPARTMENT") == before
        assert all(op.relation != "DEPARTMENT" for op in plan)


class TestCase3:
    def test_island_conflict_rejected(self, translator, university_engine):
        data = new_course(university_engine)
        translator.apply(university_engine, CompleteInsertion(data))
        data["title"] = "Different Title"
        with pytest.raises(UpdateRejectedError, match="CASE 3"):
            translator.apply(university_engine, CompleteInsertion(data))

    def test_outside_conflict_replaces(self, translator, university_engine):
        data = new_course(university_engine)
        data["DEPARTMENT"] = [
            {"dept_name": "Computer Science", "building": "New Gates"}
        ]
        plan = translator.apply(university_engine, CompleteInsertion(data))
        assert university_engine.get(
            "DEPARTMENT", ("Computer Science",)
        )[1] == "New Gates"
        assert plan.count("replace") >= 1

    def test_outside_conflict_respects_policy(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation(
            "DEPARTMENT", RelationPolicy(can_replace_existing=False)
        )
        translator = Translator(omega, policy=policy)
        data = new_course(university_engine)
        data["DEPARTMENT"] = [
            {"dept_name": "Computer Science", "building": "New Gates"}
        ]
        with pytest.raises(UpdateRejectedError):
            translator.apply(university_engine, CompleteInsertion(data))
        assert university_engine.get("COURSES", ("CS999",)) is None  # rollback


class TestGlobalIntegrityInsertions:
    def test_new_department_skeleton(self, translator, university_engine):
        data = new_course(
            university_engine, dept="Engineering Economic Systems"
        )
        translator.apply(university_engine, CompleteInsertion(data))
        assert (
            university_engine.get(
                "DEPARTMENT", ("Engineering Economic Systems",)
            )
            is not None
        )

    def test_new_student_recursive_skeleton(
        self, translator, university_engine, university_graph
    ):
        """Inserting a grade for a brand-new student must insert the
        STUDENT tuple and, recursively, its general PEOPLE tuple."""
        data = new_course(
            university_engine, student=(424242, "MSCS", 1)
        )
        translator.apply(university_engine, CompleteInsertion(data))
        assert university_engine.get("STUDENT", (424242,)) is not None
        assert university_engine.get("PEOPLE", (424242,)) is not None
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )

    def test_skeleton_blocked_by_policy(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation("PEOPLE", RelationPolicy(can_insert=False))
        translator = Translator(omega, policy=policy)
        data = new_course(university_engine, student=(424242, "MSCS", 1))
        with pytest.raises(UpdateRejectedError, match="PEOPLE"):
            translator.apply(university_engine, CompleteInsertion(data))
        assert university_engine.get("STUDENT", (424242,)) is None


class TestPolicyGates:
    def test_insertion_gate(self, omega, university_engine):
        translator = Translator(
            omega, policy=TranslatorPolicy(allow_insertion=False)
        )
        with pytest.raises(LocalValidationError):
            translator.apply(
                university_engine,
                CompleteInsertion(new_course(university_engine)),
            )

    def test_outside_insert_blocked(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation("DEPARTMENT", RelationPolicy(can_insert=False))
        translator = Translator(omega, policy=policy)
        data = new_course(university_engine, dept="Brand New Dept")
        with pytest.raises(UpdateRejectedError):
            translator.apply(university_engine, CompleteInsertion(data))

    def test_can_modify_gate_blocks_insert(self, omega, university_engine):
        policy = TranslatorPolicy()
        policy.set_relation("DEPARTMENT", RelationPolicy(can_modify=False))
        translator = Translator(omega, policy=policy)
        data = new_course(university_engine, dept="Brand New Dept")
        with pytest.raises(UpdateRejectedError):
            translator.apply(university_engine, CompleteInsertion(data))
