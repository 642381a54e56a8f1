"""Dependency islands and referencing peninsulas (Definitions 5.1, 5.2).

The **dependency island** D_ω is "the maximal subtree of the tree of
projections such that (1) the root of the subtree is the pivot relation,
and (2) all directed paths starting at the pivot relation must contain
exclusively ownership and subset connections". Here "directed" means the
connections are traversed *forward* — an owned or subset tuple is part
of the pivot entity; an owner reached backwards is not.

A **referencing peninsula** is a node of ω directly connected to an
island node by a reference connection pointing into the island, i.e. its
edge is a single inverse-reference traversal from its (island) parent.

For the paper's ω (Figure 2c) this module computes
D_ω = {COURSES, GRADES} and peninsulas = {CURRICULUM}, the Section 5
example.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Set

from repro.core.view_object import ViewObjectDefinition
from repro.structural.connections import ConnectionKind

__all__ = ["NodeRole", "IslandAnalysis", "analyze_island"]


class NodeRole(enum.Enum):
    """How a node participates in update translation."""

    ISLAND = "island"
    PENINSULA = "peninsula"
    OUTSIDE = "outside"


class IslandAnalysis:
    """Roles of every node of a view object."""

    __slots__ = ("view_object", "roles", "island_relations")

    def __init__(
        self, view_object: ViewObjectDefinition, roles: Dict[str, NodeRole]
    ) -> None:
        self.view_object = view_object
        self.roles = roles
        #: Distinct relation names inside the island, pivot first; fixed
        #: with the roles (every audited write reads it), so read-only.
        self.island_relations: List[str] = []
        for node_id in self.island_nodes:
            relation = view_object.node(node_id).relation
            if relation not in self.island_relations:
                self.island_relations.append(relation)

    @property
    def island_nodes(self) -> List[str]:
        """Island node ids in BFS (pivot-first) order."""
        return [
            node.node_id
            for node in self.view_object.tree.bfs()
            if self.roles[node.node_id] is NodeRole.ISLAND
        ]

    def role(self, node_id: str) -> NodeRole:
        return self.roles[node_id]

    def is_island(self, node_id: str) -> bool:
        return self.roles[node_id] is NodeRole.ISLAND

    def describe(self) -> str:
        lines = [f"island analysis of {self.view_object.name!r}:"]
        for node in self.view_object.tree.bfs():
            lines.append(
                f"  {node.node_id}: {self.roles[node.node_id].value}"
            )
        return "\n".join(lines)


def analyze_island(view_object: ViewObjectDefinition) -> IslandAnalysis:
    """Compute node roles per Definitions 5.1 and 5.2."""
    tree = view_object.tree
    roles: Dict[str, NodeRole] = {}
    island: Set[str] = set()

    for node in tree.bfs():
        if node.path is None:
            roles[node.node_id] = NodeRole.ISLAND
            island.add(node.node_id)
            continue
        parent_in_island = node.parent_id in island
        all_dependency = all(
            traversal.forward
            and traversal.kind
            in (ConnectionKind.OWNERSHIP, ConnectionKind.SUBSET)
            for traversal in node.path
        )
        if parent_in_island and all_dependency:
            roles[node.node_id] = NodeRole.ISLAND
            island.add(node.node_id)
            continue
        is_peninsula = (
            parent_in_island
            and len(node.path) == 1
            and node.path.traversals[0].kind is ConnectionKind.REFERENCE
            and not node.path.traversals[0].forward
        )
        roles[node.node_id] = (
            NodeRole.PENINSULA if is_peninsula else NodeRole.OUTSIDE
        )
    return IslandAnalysis(view_object, roles)
