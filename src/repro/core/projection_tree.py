"""Trees of relations: the backbone of every view object.

Both the *maximal tree* T of Figure 2(b) (every configuration a pivot
allows) and the pruned tree of an actual view object (Figure 2c) are
:class:`ProjectionTree` instances. A node names a relation — possibly a
*copy* when circuits in G forced duplication — and carries the
connection path from its parent. In a pruned tree that path may span
several connections ("a path of two connections", Figure 3) when
intermediate relations were pruned away.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ViewObjectError
from repro.structural.paths import ConnectionPath

__all__ = ["TreeNode", "ProjectionTree"]


class TreeNode:
    """One node of a projection tree."""

    __slots__ = ("node_id", "relation", "parent_id", "path", "children")

    def __init__(
        self,
        node_id: str,
        relation: str,
        parent_id: Optional[str],
        path: Optional[ConnectionPath],
    ) -> None:
        if (parent_id is None) != (path is None):
            raise ViewObjectError(
                f"node {node_id!r}: parent and path must be given together"
            )
        self.node_id = node_id
        self.relation = relation
        self.parent_id = parent_id
        self.path = path
        self.children: List[str] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode({self.node_id!r}, relation={self.relation!r})"


class ProjectionTree:
    """A rooted tree of relation nodes with connection-path edges."""

    def __init__(self, root_relation: str, root_id: Optional[str] = None) -> None:
        root_id = root_id or root_relation
        self._nodes: Dict[str, TreeNode] = {
            root_id: TreeNode(root_id, root_relation, None, None)
        }
        self._root_id = root_id
        self._copies: Dict[str, int] = {root_relation: 1}

    # -- construction ---------------------------------------------------------

    def allocate_id(self, relation: str) -> str:
        """A fresh node id: the relation name, or ``NAME#k`` for copies."""
        count = self._copies.get(relation, 0) + 1
        self._copies[relation] = count
        return relation if count == 1 else f"{relation}#{count}"

    def add_child(
        self,
        parent_id: str,
        relation: str,
        path: ConnectionPath,
        node_id: Optional[str] = None,
    ) -> TreeNode:
        parent = self.node(parent_id)
        if path.start != parent.relation:
            raise ViewObjectError(
                f"edge path starts at {path.start!r} but parent node "
                f"{parent_id!r} holds relation {parent.relation!r}"
            )
        if path.end != relation:
            raise ViewObjectError(
                f"edge path ends at {path.end!r}, not {relation!r}"
            )
        node_id = node_id or self.allocate_id(relation)
        if node_id in self._nodes:
            raise ViewObjectError(f"node id {node_id!r} already used")
        node = TreeNode(node_id, relation, parent_id, path)
        self._nodes[node_id] = node
        parent.children.append(node_id)
        return node

    # -- access -------------------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        return self._nodes[self._root_id]

    @property
    def root_id(self) -> str:
        return self._root_id

    def node(self, node_id: str) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ViewObjectError(f"unknown tree node: {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def nodes(self) -> Iterator[TreeNode]:
        return iter(self._nodes.values())

    def children(self, node_id: str) -> List[TreeNode]:
        return [self._nodes[c] for c in self.node(node_id).children]

    def parent(self, node_id: str) -> Optional[TreeNode]:
        parent_id = self.node(node_id).parent_id
        return None if parent_id is None else self._nodes[parent_id]

    def relations(self) -> Tuple[str, ...]:
        """Distinct relation names present in the tree."""
        seen: List[str] = []
        for node in self._nodes.values():
            if node.relation not in seen:
                seen.append(node.relation)
        return tuple(seen)

    def nodes_for_relation(self, relation: str) -> List[TreeNode]:
        return [n for n in self._nodes.values() if n.relation == relation]

    def path_to_root(self, node_id: str) -> List[TreeNode]:
        """Nodes from ``node_id`` up to (and including) the root."""
        trail = [self.node(node_id)]
        while trail[-1].parent_id is not None:
            trail.append(self._nodes[trail[-1].parent_id])
        return trail

    # -- traversal orders -------------------------------------------------------------

    def dfs(self) -> Iterator[TreeNode]:
        """Depth-first, children in insertion order — the order VO-R walks."""
        stack = [self._root_id]
        while stack:
            node = self._nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children))

    def bfs(self) -> Iterator[TreeNode]:
        queue = [self._root_id]
        index = 0
        while index < len(queue):
            node = self._nodes[queue[index]]
            index += 1
            yield node
            queue.extend(node.children)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- rendering ---------------------------------------------------------------------

    def describe(self) -> str:
        """Indented ASCII rendering (used by the Figure 2 bench)."""
        lines: List[str] = []

        def walk(node_id: str, indent: int) -> None:
            node = self._nodes[node_id]
            if node.path is None:
                edge = ""
            else:
                arrows = " ".join(
                    t.kind.symbol if t.forward else "(" + t.kind.symbol + ")^-1"
                    for t in node.path
                )
                edge = f"  [{arrows}]"
            lines.append("  " * indent + node.node_id + edge)
            for child_id in node.children:
                walk(child_id, indent + 1)

        walk(self._root_id, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProjectionTree(root={self._root_id!r}, {len(self._nodes)} nodes)"
