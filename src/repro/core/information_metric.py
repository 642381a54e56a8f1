"""The information metric: extracting the relevant subgraph G (Figure 2a).

The paper defers the metric's full definition to Barsalou's thesis [4]
and only requires that, given a pivot relation, it "isolates all the
relations deemed to be relevant to the new object". We implement a
*hop-decay relevance metric*:

* the pivot has relevance 1;
* traversing a connection multiplies relevance by a weight that depends
  on the connection kind and the direction of travel (owned components
  bind tighter than referencing entities), times a global per-hop decay;
* a relation's relevance is the best product over all paths from the
  pivot, computed by a max-product Dijkstra walk;
* an edge (in a given direction) belongs to G when following it from
  its start keeps relevance at or above the threshold; a relation
  belongs to G when some included edge reaches it.

With the default weights, the university schema of Figure 1 and pivot
COURSES yield exactly the subgraph of Figure 2(a): {COURSES, DEPARTMENT,
CURRICULUM, GRADES, STUDENT, PEOPLE} plus FACULTY (reachable through the
nullable instructor reference, needed for Figure 3's ω′), with one
circuit COURSES-DEPARTMENT-PEOPLE-STUDENT-GRADES-COURSES.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.structural.connections import Connection, ConnectionKind, Traversal
from repro.structural.schema_graph import StructuralSchema

__all__ = ["MetricWeights", "RelevantSubgraph", "InformationMetric"]


class MetricWeights:
    """Per-kind, per-direction traversal weights plus the hop decay.

    The defaults encode the intuition of the structural model: owned and
    subset tuples are integral parts of an entity (weight 1 forward);
    the owner or general entity is strong context (0.8 / 0.9 inverse);
    referenced abstractions contribute well (0.9 forward, halved to 0.5
    when the reference is nullable and hence often absent); referencing
    entities are weaker context (0.65 inverse).
    """

    FORWARD_OWNERSHIP = 1.0
    INVERSE_OWNERSHIP = 0.8
    FORWARD_SUBSET = 1.0
    INVERSE_SUBSET = 0.9
    FORWARD_REFERENCE = 0.9
    FORWARD_NULLABLE_REFERENCE = 0.5
    INVERSE_REFERENCE = 0.65

    def __init__(self, hop_decay: float = 0.8) -> None:
        self.hop_decay = hop_decay

    def weight(self, graph: StructuralSchema, traversal: Traversal) -> float:
        """The relevance multiplier for one traversal (includes decay)."""
        kind = traversal.kind
        if kind is ConnectionKind.OWNERSHIP:
            base = self.FORWARD_OWNERSHIP if traversal.forward else self.INVERSE_OWNERSHIP
        elif kind is ConnectionKind.SUBSET:
            base = self.FORWARD_SUBSET if traversal.forward else self.INVERSE_SUBSET
        else:
            if traversal.forward:
                base = (
                    self.FORWARD_NULLABLE_REFERENCE
                    if self._reference_is_nullable(graph, traversal.connection)
                    else self.FORWARD_REFERENCE
                )
            else:
                base = self.INVERSE_REFERENCE
        return base * self.hop_decay

    @staticmethod
    def _reference_is_nullable(
        graph: StructuralSchema, connection: Connection
    ) -> bool:
        schema = graph.relation(connection.source)
        return any(
            schema.attribute(name).nullable
            for name in connection.source_attributes
        )


class RelevantSubgraph:
    """The subgraph G: relevant relations, included edges, relevances."""

    __slots__ = ("pivot", "relations", "connections", "relevance")

    def __init__(
        self,
        pivot: str,
        relations: Set[str],
        connections: List[Connection],
        relevance: Dict[str, float],
    ) -> None:
        self.pivot = pivot
        self.relations = relations
        self.connections = connections
        self.relevance = relevance

    def incident(self, relation: str) -> List[Connection]:
        """Included edges touching ``relation``."""
        return [
            c
            for c in self.connections
            if c.source == relation or c.target == relation
        ]

    def describe(self) -> str:
        lines = [f"relevant subgraph around pivot {self.pivot!r}:"]
        for name in sorted(self.relations):
            lines.append(f"  {name}  relevance={self.relevance[name]:.3f}")
        for connection in self.connections:
            lines.append(f"  edge [{connection.name}] {connection.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelevantSubgraph({self.pivot!r}, {len(self.relations)} relations, "
            f"{len(self.connections)} edges)"
        )


class InformationMetric:
    """Max-product relevance propagation from a pivot relation."""

    def __init__(
        self,
        weights: Optional[MetricWeights] = None,
        threshold: float = 0.35,
    ) -> None:
        self.weights = weights or MetricWeights()
        self.threshold = threshold

    def relevance_map(
        self, graph: StructuralSchema, pivot: str
    ) -> Dict[str, float]:
        """Best-path relevance of every reachable relation (no threshold)."""
        graph.relation(pivot)
        best: Dict[str, float] = {pivot: 1.0}
        heap: List[Tuple[float, int, str]] = [(-1.0, 0, pivot)]
        counter = 0
        while heap:
            negative, __, node = heapq.heappop(heap)
            relevance = -negative
            if relevance < best.get(node, 0.0):
                continue
            for traversal in graph.traversals_from(node):
                candidate = relevance * self.weights.weight(graph, traversal)
                target = traversal.end
                if candidate > best.get(target, 0.0):
                    best[target] = candidate
                    counter += 1
                    heapq.heappush(heap, (-candidate, counter, target))
        return best

    def extract_subgraph(
        self, graph: StructuralSchema, pivot: str
    ) -> RelevantSubgraph:
        """The subgraph G of Figure 2(a): thresholded relevance growth.

        An edge is included when following it from its start relation
        keeps relevance at or above the threshold; a relation is
        included when the pivot reaches it through included edges.
        """
        relevance = self.relevance_map(graph, pivot)
        relations: Set[str] = {pivot}
        included: List[Connection] = []
        seen_edges: Set[str] = set()
        # Grow from the pivot: consider only relations already admitted.
        frontier = [pivot]
        while frontier:
            node = frontier.pop()
            for traversal in graph.traversals_from(node):
                weight = self.weights.weight(graph, traversal)
                candidate = relevance[node] * weight
                if candidate < self.threshold:
                    continue
                connection = traversal.connection
                if connection.name not in seen_edges:
                    seen_edges.add(connection.name)
                    included.append(connection)
                target = traversal.end
                if target not in relations:
                    relations.add(target)
                    frontier.append(target)
        kept_relevance = {name: relevance[name] for name in relations}
        return RelevantSubgraph(pivot, relations, included, kept_relevance)
