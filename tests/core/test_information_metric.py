"""The information metric: relevance propagation and subgraph extraction."""

import pytest

from repro.core.information_metric import InformationMetric, MetricWeights
from repro.workloads.university import university_schema


@pytest.fixture
def graph():
    return university_schema()


@pytest.fixture
def metric():
    return InformationMetric()


class TestRelevanceMap:
    def test_pivot_has_relevance_one(self, graph, metric):
        relevance = metric.relevance_map(graph, "COURSES")
        assert relevance["COURSES"] == 1.0

    def test_relevance_in_unit_interval(self, graph, metric):
        relevance = metric.relevance_map(graph, "COURSES")
        assert all(0.0 < value <= 1.0 for value in relevance.values())

    def test_owned_stronger_than_referencing(self, graph, metric):
        relevance = metric.relevance_map(graph, "COURSES")
        assert relevance["GRADES"] > relevance["CURRICULUM"]

    def test_all_relations_reachable(self, graph, metric):
        relevance = metric.relevance_map(graph, "COURSES")
        assert set(relevance) == set(graph.relation_names)

    def test_relevance_decays_with_distance(self, graph, metric):
        relevance = metric.relevance_map(graph, "COURSES")
        assert relevance["STUDENT"] < relevance["GRADES"]
        assert relevance["PEOPLE"] < relevance["STUDENT"]


class TestSubgraphFigure2a:
    def test_relations_match_figure(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "COURSES")
        assert subgraph.relations == {
            "COURSES",
            "CURRICULUM",
            "DEPARTMENT",
            "FACULTY",
            "GRADES",
            "PEOPLE",
            "STUDENT",
        }

    def test_staff_excluded(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "COURSES")
        assert "STAFF" not in subgraph.relations

    def test_edges_form_one_circuit(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "COURSES")
        # 7 relations, 7 edges -> exactly one circuit.
        assert len(subgraph.connections) == 7
        assert graph.undirected_cycles_exist_within(subgraph.relations)

    def test_people_faculty_edge_excluded(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "COURSES")
        names = {connection.name for connection in subgraph.connections}
        assert "people_faculty" not in names
        assert "people_staff" not in names

    def test_incident(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "COURSES")
        incident = {c.name for c in subgraph.incident("PEOPLE")}
        assert incident == {"people_department", "people_student"}

    def test_describe(self, graph, metric):
        text = metric.extract_subgraph(graph, "COURSES").describe()
        assert "COURSES" in text and "relevance" in text


class TestThresholdKnob:
    def test_high_threshold_shrinks_subgraph(self, graph):
        tight = InformationMetric(threshold=0.75)
        subgraph = tight.extract_subgraph(graph, "COURSES")
        assert subgraph.relations == {"COURSES", "GRADES"}

    def test_low_threshold_admits_everything(self, graph):
        loose = InformationMetric(threshold=0.05)
        subgraph = loose.extract_subgraph(graph, "COURSES")
        assert subgraph.relations == set(graph.relation_names)

    def test_custom_weights(self, graph):
        weights = MetricWeights(inverse_reference=0.1)
        metric = InformationMetric(weights=weights)
        subgraph = metric.extract_subgraph(graph, "COURSES")
        assert "CURRICULUM" not in subgraph.relations


class TestOtherPivots:
    def test_pivot_people(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "PEOPLE")
        assert "STUDENT" in subgraph.relations
        assert "FACULTY" in subgraph.relations
        assert "STAFF" in subgraph.relations

    def test_pivot_department(self, graph, metric):
        subgraph = metric.extract_subgraph(graph, "DEPARTMENT")
        assert "DEPARTMENT" in subgraph.relations
        assert subgraph.pivot == "DEPARTMENT"
