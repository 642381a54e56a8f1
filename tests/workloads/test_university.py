"""Figure 1 workload: schema shape and generator determinism."""

import pytest

from repro.relational.memory_engine import MemoryEngine
from repro.structural.connections import ConnectionKind
from repro.structural.integrity import IntegrityChecker
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.conftest import sized


@pytest.fixture
def graph():
    return university_schema()


class TestFigure1Shape:
    def test_eight_relations(self, graph):
        assert len(graph.relation_names) == 8

    def test_connection_kinds(self, graph):
        kinds = {}
        for connection in graph.connections:
            kinds.setdefault(connection.kind, []).append(connection.name)
        assert len(kinds[ConnectionKind.OWNERSHIP]) == 2
        assert len(kinds[ConnectionKind.SUBSET]) == 3
        assert len(kinds[ConnectionKind.REFERENCE]) == 4

    def test_people_specializations(self, graph):
        subsets = {
            c.target
            for c in graph.connections_from("PEOPLE", ConnectionKind.SUBSET)
        }
        assert subsets == {"STUDENT", "FACULTY", "STAFF"}

    def test_grades_owned_by_courses_and_students(self, graph):
        owners = {
            c.source
            for c in graph.connections_to("GRADES", ConnectionKind.OWNERSHIP)
        }
        assert owners == {"COURSES", "STUDENT"}

    def test_curriculum_references_courses(self, graph):
        connection = graph.connection("curriculum_courses")
        assert connection.kind is ConnectionKind.REFERENCE
        assert connection.source == "CURRICULUM"
        assert connection.target == "COURSES"


class TestGenerator:
    def test_counts_match_config(self, graph):
        engine = MemoryEngine()
        graph.install(engine)
        counts = populate_university(
            engine, sized(UniversityConfig(students=10, courses=5), faculty=3, staff=2)
        )
        assert counts["STUDENT"] == 10
        assert counts["FACULTY"] == 3
        assert counts["STAFF"] == 2
        assert counts["COURSES"] == 5
        assert counts["PEOPLE"] == 15

    def test_deterministic(self, graph):
        first, second = MemoryEngine(), MemoryEngine()
        university_schema().install(first)
        university_schema().install(second)
        populate_university(first)
        populate_university(second)
        for name in graph.relation_names:
            assert sorted(first.scan(name)) == sorted(second.scan(name))

    def test_seed_changes_data(self, graph):
        first, second = MemoryEngine(), MemoryEngine()
        university_schema().install(first)
        university_schema().install(second)
        populate_university(first, sized(UniversityConfig(), seed=1))
        populate_university(second, sized(UniversityConfig(), seed=2))
        assert sorted(first.scan("PEOPLE")) != sorted(second.scan("PEOPLE"))

    def test_generated_data_consistent(self, graph):
        engine = MemoryEngine()
        graph.install(engine)
        populate_university(engine)
        assert IntegrityChecker(graph).is_consistent(engine)

    def test_levels_are_valid(self, university_engine):
        for values in university_engine.scan("COURSES"):
            assert values[3] in ("graduate", "undergraduate")
