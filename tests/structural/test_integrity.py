"""Integrity checker: the existence rules of Definitions 2.2-2.4."""

import pytest

from repro.relational.memory_engine import MemoryEngine
from repro.structural.connections import Traversal
from repro.structural.integrity import IntegrityChecker
from repro.workloads.university import populate_university, university_schema
from tests.reference_walk import connected_tuples


@pytest.fixture
def graph():
    return university_schema()


@pytest.fixture
def engine(graph):
    engine = MemoryEngine()
    graph.install(engine)
    populate_university(engine)
    return engine


@pytest.fixture
def checker(graph):
    return IntegrityChecker(graph)


class TestCleanDatabase:
    def test_generated_data_is_consistent(self, engine, checker):
        assert checker.is_consistent(engine)

    def test_check_returns_empty(self, engine, checker):
        assert checker.check(engine) == []


class TestOwnershipRule:
    def test_orphan_grade_detected(self, engine, checker):
        engine.insert(
            "GRADES",
            {"course_id": "GHOST1", "student_id": 1001, "grade": "A"},
        )
        violations = checker.check(engine)
        rules = {v.rule for v in violations}
        assert "ownership-1" in rules

    def test_orphan_grade_names_connection(self, engine, checker, graph):
        engine.insert(
            "GRADES",
            {"course_id": "GHOST1", "student_id": 1001, "grade": "A"},
        )
        violation = [v for v in checker.check(engine) if v.rule == "ownership-1"][0]
        assert violation.relation == "GRADES"
        assert "courses_grades" in violation.message


class TestSubsetRule:
    def test_student_without_person(self, engine, checker):
        engine.insert(
            "STUDENT",
            {"person_id": 999999, "degree_program": "MSCS", "year": 1},
        )
        rules = {v.rule for v in checker.check(engine)}
        assert "subset-1" in rules


class TestReferenceRule:
    def test_dangling_reference(self, engine, checker):
        engine.insert(
            "CURRICULUM",
            {"degree": "MSCS", "course_id": "GHOST9", "category": "required"},
        )
        violations = [
            v for v in checker.check(engine) if v.rule == "reference-1"
        ]
        assert violations and violations[0].relation == "CURRICULUM"

    def test_null_reference_is_legal(self, engine, checker):
        engine.insert(
            "COURSES",
            {
                "course_id": "X1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "instructor_id": None,
            },
        )
        assert checker.is_consistent(engine)


class TestConnectedTuples:
    def test_forward_match(self, engine, graph):
        connection = graph.connection("courses_grades")
        course = engine.scan("COURSES").__next__()
        grades = connected_tuples(
            engine, Traversal(connection, True), course
        )
        for grade in grades:
            assert grade[0] == course[0]

    def test_backward_match(self, engine, graph):
        connection = graph.connection("courses_grades")
        grade = next(iter(engine.scan("GRADES")))
        owners = connected_tuples(
            engine, Traversal(connection, False), grade
        )
        assert len(owners) == 1
        assert owners[0][0] == grade[0]

    def test_null_connects_nothing(self, engine, graph):
        engine.insert(
            "COURSES",
            {
                "course_id": "X1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "instructor_id": None,
            },
        )
        connection = graph.connection("courses_instructor")
        course = engine.get("COURSES", ("X1",))
        assert connected_tuples(engine, Traversal(connection, True), course) == []
