"""View-object definitions (Definitions 3.1 and 3.2).

A view object ω is a set of projections arranged into a tree rooted at
the **pivot relation**. Only the definition is stored — "a view object
is an uninstantiated window onto the underlying database". This module
ties together the metric, the tree builder, and the projections, and
enforces the paper's structural conditions:

* exactly one projection is defined on the pivot relation, and it
  retains all of ``K(pivot)`` — the *object key* ``K(ω)``;
* no other projection targets the pivot relation, but non-pivot
  relations may appear several times (copies);
* every projection retains the connecting attributes of the tree edges
  touching its node (otherwise instances could not be assembled or
  mapped back);
* for updatable objects, every projection retains its relation's full
  key so update translation can address database tuples.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PivotError, ProjectionError, ViewObjectError
from repro.core.information_metric import InformationMetric, RelevantSubgraph
from repro.core.projection import Projection
from repro.core.projection_tree import ProjectionTree, TreeNode
from repro.core.tree_builder import build_maximal_tree, prune_tree
from repro.structural.schema_graph import StructuralSchema

__all__ = ["ViewObjectDefinition", "define_view_object"]


class ViewObjectDefinition:
    """ω: a named, pruned tree of projections anchored on a pivot."""

    def __init__(
        self,
        name: str,
        graph: StructuralSchema,
        tree: ProjectionTree,
        projections: Mapping[str, Projection],
        updatable: bool = True,
        subgraph: Optional[RelevantSubgraph] = None,
        maximal_tree: Optional[ProjectionTree] = None,
    ) -> None:
        self.name = name
        self.graph = graph
        self.tree = tree
        self.projections: Dict[str, Projection] = dict(projections)
        self.updatable = updatable
        self.subgraph = subgraph
        self.maximal_tree = maximal_tree
        self._instantiator = None
        self._shapes = None
        self._validate()

    # -- Definition 3.1 / 3.2 --------------------------------------------------

    @property
    def pivot_relation(self) -> str:
        """The relation the object is anchored on."""
        return self.tree.root.relation

    @property
    def pivot_node_id(self) -> str:
        return self.tree.root_id

    @property
    def object_key(self) -> Tuple[str, ...]:
        """K(ω) — isomorphic to the key of the pivot relation."""
        return self.graph.relation(self.pivot_relation).key

    @property
    def complexity(self) -> int:
        """The number of projections included in the object."""
        return len(self.projections)

    def projection(self, node_id: str) -> Projection:
        try:
            return self.projections[node_id]
        except KeyError:
            raise ViewObjectError(
                f"view object {self.name!r} has no node {node_id!r}"
            ) from None

    def node(self, node_id: str) -> TreeNode:
        return self.tree.node(node_id)

    def relations(self) -> Tuple[str, ...]:
        """d(ω): the distinct base relations the object draws from."""
        return self.tree.relations()

    @property
    def instantiator(self):
        """The object's one :class:`~repro.core.instantiation.Instantiator`.

        Its plan is compiled from this (immutable) definition on first
        use and shared by every reader — facade reads, queries, the
        translator and materialized views — so no read recompiles it.
        """
        if self._instantiator is None:
            # Imported here: instantiation builds on this module.
            from repro.core.instantiation import Instantiator

            self._instantiator = Instantiator(self)
        return self._instantiator

    @property
    def shapes(self) -> Dict[str, Tuple[Tuple[str, ...], FrozenSet[str], Tuple[str, ...]]]:
        """Per node id: its projected attribute names, the same as a set,
        and its child node ids — what a payload is read against
        (:func:`~repro.core.instance.build_instance`), derived once."""
        if self._shapes is None:
            self._shapes = {
                node_id: (
                    projection.attributes,
                    frozenset(projection.attributes),
                    tuple(self.tree.node(node_id).children),
                )
                for node_id, projection in self.projections.items()
            }
        return self._shapes

    # -- validation -----------------------------------------------------------------

    def _validate(self) -> None:
        if set(self.projections) != set(self.tree.node_ids):
            missing = set(self.tree.node_ids) - set(self.projections)
            extra = set(self.projections) - set(self.tree.node_ids)
            raise ViewObjectError(
                f"view object {self.name!r}: projections do not match tree "
                f"nodes (missing={sorted(missing)!r}, extra={sorted(extra)!r})"
            )

        pivot_relation = self.pivot_relation
        pivot_schema = self.graph.relation(pivot_relation)
        pivot_projection = self.projections[self.pivot_node_id]
        if not pivot_projection.includes_key_of(pivot_schema):
            raise PivotError(
                f"view object {self.name!r}: the pivot projection must "
                f"retain all of K({pivot_relation}) = {pivot_schema.key!r}"
            )
        for node_id, projection in self.projections.items():
            node = self.tree.node(node_id)
            if projection.relation != node.relation:
                raise ViewObjectError(
                    f"node {node_id!r} holds relation {node.relation!r} but "
                    f"its projection targets {projection.relation!r}"
                )
            schema = self.graph.relation(node.relation)
            projection.validate_against(schema)
            if node_id != self.pivot_node_id and node.relation == pivot_relation:
                raise PivotError(
                    f"view object {self.name!r}: no projection other than the "
                    f"pivot's may be defined on the pivot relation "
                    f"{pivot_relation!r}"
                )
            if self.updatable and not projection.includes_key_of(schema):
                raise ProjectionError(
                    f"updatable view object {self.name!r}: projection on node "
                    f"{node_id!r} must retain K({node.relation}) = "
                    f"{schema.key!r}"
                )
        self._validate_edge_attributes()

    def _validate_edge_attributes(self) -> None:
        """Each edge's endpoint attributes must be retained by the
        projections on both sides (intermediate relations of composite
        paths are not in the object and impose nothing)."""
        for node in self.tree.nodes():
            if node.path is None:
                continue
            parent = self.tree.node(node.parent_id)
            first = node.path.traversals[0]
            last = node.path.traversals[-1]
            parent_projection = self.projections[parent.node_id]
            child_projection = self.projections[node.node_id]
            if not parent_projection.covers(first.start_attributes):
                raise ProjectionError(
                    f"view object {self.name!r}: projection on "
                    f"{parent.node_id!r} must retain connecting attributes "
                    f"{first.start_attributes!r} of edge to {node.node_id!r}"
                )
            if not child_projection.covers(last.end_attributes):
                raise ProjectionError(
                    f"view object {self.name!r}: projection on "
                    f"{node.node_id!r} must retain connecting attributes "
                    f"{last.end_attributes!r} of edge from {parent.node_id!r}"
                )

    # -- rendering ---------------------------------------------------------------------

    def describe(self) -> str:
        """Indented rendering with selected attributes, Figure 2(c) style."""
        lines: List[str] = [f"view object {self.name!r} (complexity {self.complexity})"]

        def walk(node_id: str, indent: int) -> None:
            node = self.tree.node(node_id)
            attrs = ", ".join(self.projections[node_id].attributes)
            edge = ""
            if node.path is not None:
                edge = node.path.describe()
                edge = f"  via {edge}"
            lines.append("  " * indent + f"{node.node_id} ({attrs}){edge}")
            for child_id in node.children:
                walk(child_id, indent + 1)

        walk(self.pivot_node_id, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ViewObjectDefinition({self.name!r}, pivot={self.pivot_relation!r}, "
            f"complexity={self.complexity})"
        )


def define_view_object(
    graph: StructuralSchema,
    name: str,
    pivot: str,
    selections: Mapping[str, Sequence[str]],
    metric: Optional[InformationMetric] = None,
) -> ViewObjectDefinition:
    """The full definition pipeline of Figure 2: metric → tree → pruning.

    ``selections`` maps node ids of the maximal tree (relation names,
    with ``#k`` suffixes for copies) to the attributes their projections
    retain. The pivot node must be among the keys.

    Returns a :class:`ViewObjectDefinition` that keeps the intermediate
    artifacts (``subgraph``, ``maximal_tree``) for inspection — the
    Figure 2 benchmark prints all three stages.
    """
    metric = metric or InformationMetric()
    subgraph = metric.extract_subgraph(graph, pivot)
    maximal = build_maximal_tree(graph, subgraph, metric.weights)
    unknown = [n for n in selections if not maximal.has_node(n)]
    if unknown:
        raise ViewObjectError(
            f"selection names nodes absent from the maximal tree for pivot "
            f"{pivot!r}: {sorted(unknown)!r}; available: "
            f"{sorted(maximal.node_ids)!r}"
        )
    pruned = prune_tree(maximal, selections.keys())
    projections = {
        node_id: Projection(pruned.node(node_id).relation, attributes)
        for node_id, attributes in selections.items()
    }
    return ViewObjectDefinition(
        name,
        graph,
        pruned,
        projections,
        subgraph=subgraph,
        maximal_tree=maximal,
    )
