"""Structural schema graph: construction, traversal, circuits."""

import pytest

from repro.errors import ConnectionError, StructuralError, UnknownRelationError
from repro.relational.memory_engine import MemoryEngine
from repro.structural.connections import ConnectionKind
from repro.workloads.university import university_schema


@pytest.fixture
def graph():
    return university_schema()


class TestCatalog:
    def test_relation_names(self, graph):
        assert set(graph.relation_names) == {
            "DEPARTMENT",
            "PEOPLE",
            "STUDENT",
            "FACULTY",
            "STAFF",
            "COURSES",
            "CURRICULUM",
            "GRADES",
        }

    def test_connection_count_matches_figure1(self, graph):
        assert len(graph.connections) == 9

    def test_relation_lookup(self, graph):
        assert graph.relation("COURSES").key == ("course_id",)
        with pytest.raises(UnknownRelationError):
            graph.relation("NOPE")

    def test_connection_lookup(self, graph):
        assert graph.connection("courses_grades").kind is ConnectionKind.OWNERSHIP
        with pytest.raises(ConnectionError):
            graph.connection("nope")

    def test_duplicate_relation_rejected(self, graph):
        with pytest.raises(StructuralError):
            graph.add_relation(graph.relation("COURSES"))

    def test_duplicate_connection_rejected(self, graph):
        with pytest.raises(ConnectionError):
            graph.ownership(
                "courses_grades", "COURSES", "GRADES",
                ["course_id"], ["course_id"],
            )


class TestTraversal:
    def test_connections_from(self, graph):
        names = {c.name for c in graph.connections_from("COURSES")}
        assert names == {
            "courses_department",
            "courses_grades",
            "courses_instructor",
        }

    def test_connections_from_filtered(self, graph):
        owned = graph.connections_from("COURSES", ConnectionKind.OWNERSHIP)
        assert [c.name for c in owned] == ["courses_grades"]

    def test_connections_to(self, graph):
        names = {c.name for c in graph.connections_to("DEPARTMENT")}
        assert names == {"people_department", "courses_department"}

    def test_traversals_include_inverse(self, graph):
        traversals = graph.traversals_from("GRADES")
        starts = {(t.end, t.forward) for t in traversals}
        assert ("COURSES", False) in starts
        assert ("STUDENT", False) in starts

    def test_traversals_without_inverse(self, graph):
        forward = [t for t in graph.traversals_from("GRADES") if t.forward]
        assert forward == []

    def test_traversal_kind_filter(self, graph):
        subsets = [
            t for t in graph.traversals_from("PEOPLE")
            if t.kind is ConnectionKind.SUBSET
        ]
        assert {t.end for t in subsets} == {"STUDENT", "FACULTY", "STAFF"}

    def test_neighbors(self, graph):
        ends = {t.end for t in graph.traversals_from("GRADES")}
        assert ends == {"COURSES", "STUDENT"}


class TestCircuits:
    def test_figure2_circuit_exists(self, graph):
        relations = ["COURSES", "DEPARTMENT", "PEOPLE", "STUDENT", "GRADES"]
        assert graph.undirected_cycles_exist_within(relations)

    def test_no_circuit_in_subset(self, graph):
        assert not graph.undirected_cycles_exist_within(
            ["COURSES", "GRADES", "CURRICULUM"]
        )

    def test_no_circuit_singleton(self, graph):
        assert not graph.undirected_cycles_exist_within(["COURSES"])


class TestInstall:
    def test_install_creates_relations(self, graph):
        engine = MemoryEngine()
        graph.install(engine)
        assert set(engine.relation_names()) == set(graph.relation_names)

    def test_install_creates_indexes(self, graph):
        engine = MemoryEngine()
        graph.install(engine)
        table = engine._table("GRADES")
        assert ("course_id",) in table._indexes
        assert ("student_id",) in table._indexes

    def test_install_without_indexes(self, graph):
        engine = MemoryEngine()
        graph.install(engine, with_indexes=False)
        assert not engine._table("GRADES")._indexes


def test_describe_mentions_all_connections(graph):
    text = graph.describe()
    for connection in graph.connections:
        assert connection.name in text
