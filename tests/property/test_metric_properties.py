"""Property tests on the information metric and tree builder."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.information_metric import InformationMetric, MetricWeights
from repro.core.tree_builder import build_maximal_tree
from repro.workloads.cad import cad_schema
from repro.workloads.hospital import hospital_schema
from repro.workloads.university import university_schema

GRAPHS = {
    "university": university_schema(),
    "hospital": hospital_schema(),
    "cad": cad_schema(),
}


graph_names = st.sampled_from(sorted(GRAPHS))
thresholds = st.floats(min_value=0.05, max_value=0.95)


@given(name=graph_names, threshold=thresholds)
@settings(max_examples=60, deadline=None)
def test_relevance_bounded_and_pivot_maximal(name, threshold):
    graph = GRAPHS[name]
    metric = InformationMetric(threshold=threshold)
    for pivot in graph.relation_names:
        relevance = metric.relevance_map(graph, pivot)
        assert relevance[pivot] == 1.0
        assert all(0.0 < value <= 1.0 for value in relevance.values())


@given(name=graph_names, threshold=thresholds)
@settings(max_examples=60, deadline=None)
def test_subgraph_connected_and_thresholded(name, threshold):
    graph = GRAPHS[name]
    metric = InformationMetric(threshold=threshold)
    for pivot in graph.relation_names:
        subgraph = metric.extract_subgraph(graph, pivot)
        assert pivot in subgraph.relations
        # Every edge endpoint is in the relation set.
        for connection in subgraph.connections:
            assert connection.source in subgraph.relations
            assert connection.target in subgraph.relations
        # Every non-pivot relation is reached by some included edge.
        reachable = {pivot}
        frontier = [pivot]
        while frontier:
            node = frontier.pop()
            for connection in subgraph.incident(node):
                other = connection.other_endpoint(node)
                if other not in reachable:
                    reachable.add(other)
                    frontier.append(other)
        assert reachable == subgraph.relations


@given(name=graph_names, threshold=st.floats(min_value=0.1, max_value=0.6))
@settings(max_examples=40, deadline=None)
def test_tree_node_count_equals_edges_plus_one(name, threshold):
    """Edge-once unfolding: |T| = |edges of G| + 1, always."""
    graph = GRAPHS[name]
    metric = InformationMetric(threshold=threshold)
    for pivot in graph.relation_names:
        subgraph = metric.extract_subgraph(graph, pivot)
        tree = build_maximal_tree(graph, subgraph, metric.weights)
        assert len(tree) == len(subgraph.connections) + 1
        # Duplicate count equals the circuit rank of G.
        circuit_rank = len(subgraph.connections) - (
            len(subgraph.relations) - 1
        )
        assert len(tree) - len(subgraph.relations) == circuit_rank


@given(
    hop_decay=st.floats(min_value=0.5, max_value=1.0),
    inverse_reference=st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_monotone_in_threshold(hop_decay, inverse_reference):
    graph = GRAPHS["university"]
    weights = MetricWeights(hop_decay=hop_decay)
    weights.INVERSE_REFERENCE = inverse_reference
    loose = InformationMetric(weights=weights, threshold=0.2)
    tight = InformationMetric(weights=weights, threshold=0.6)
    for pivot in graph.relation_names:
        loose_set = loose.extract_subgraph(graph, pivot).relations
        tight_set = tight.extract_subgraph(graph, pivot).relations
        assert tight_set <= loose_set
