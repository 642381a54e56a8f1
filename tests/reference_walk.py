"""The readable Figure-4 walks, kept as the oracle for the compiled ones.

``src/`` compiles both directions of the walk at definition time:
:class:`repro.core.instantiation.Instantiator` turns the downward walk
into a plan of tuple positions, and
:class:`repro.materialize.dependency.DependencyIndex` turns the upward
climb into a projection of the changed tuple wherever Definitions 2.2
and 2.4 allow. This module keeps the walks they replaced, verbatim: they
look every node, projection, schema and connecting attribute up by name
per tuple, and they ask the engine at every step. Slow, and obviously
the paper's procedure — which is what an oracle is for
(``tests/property/test_read_path_properties.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import ComponentTuple, Instance
from repro.core.view_object import ViewObjectDefinition
from repro.relational.changelog import ChangeRecord
from repro.relational.engine import Engine
from repro.structural.connections import Traversal
from repro.structural.paths import ConnectionPath

PivotKey = Tuple[Any, ...]


def connection_entry(
    engine: Engine,
    relation: str,
    values: Sequence[Any],
    attribute_names: Sequence[str],
) -> Tuple[Any, ...]:
    """Project a value tuple of ``relation`` onto connecting attributes."""
    return engine.schema(relation).project(values, attribute_names)


def connected_tuples(
    engine: Engine,
    traversal: Traversal,
    start_values: Sequence[Any],
) -> List[Tuple[Any, ...]]:
    """Tuples at ``traversal.end`` connected to one tuple at
    ``traversal.start`` ("two tuples are connected iff the values of the
    connecting attributes match", Definition 2.1); none when any
    connecting value is null (a null never matches)."""
    entry = connection_entry(
        engine, traversal.start, start_values, traversal.start_attributes
    )
    if any(v is None for v in entry):
        return []
    return engine.find_by(traversal.end, traversal.end_attributes, entry)


# -- downward: instantiation (Figure 4) ---------------------------------------


class ReferenceInstantiator:
    """Assembles instances of one view object by the uncompiled walk."""

    def __init__(self, view_object: ViewObjectDefinition) -> None:
        self.view_object = view_object
        self.graph = view_object.graph

    def by_key(self, engine: Engine, key: Sequence[Any]) -> Optional[Instance]:
        values = engine.get(self.view_object.pivot_relation, tuple(key))
        if values is None:
            return None
        return self.assemble(engine, values)

    def all(self, engine: Engine) -> List[Instance]:
        return [
            self.assemble(engine, values)
            for values in engine.scan(self.view_object.pivot_relation)
        ]

    def assemble(self, engine: Engine, pivot_values: Tuple[Any, ...]) -> Instance:
        root = self._bind(engine, self.view_object.pivot_node_id, pivot_values)
        return Instance(self.view_object, root)

    def _bind(
        self, engine: Engine, node_id: str, base_values: Tuple[Any, ...]
    ) -> ComponentTuple:
        node = self.view_object.node(node_id)
        schema = self.graph.relation(node.relation)
        projection = self.view_object.projection(node_id)
        values = {
            name: value
            for name, value in zip(
                projection.attributes,
                schema.project(base_values, projection.attributes),
            )
        }
        children: Dict[str, List[ComponentTuple]] = {}
        for child in self.view_object.tree.children(node_id):
            bound = self._follow_path(engine, child.path, base_values)
            children[child.node_id] = [
                self._bind(engine, child.node_id, child_values)
                for child_values in bound
            ]
        return ComponentTuple(node_id, values, children)

    def _follow_path(
        self,
        engine: Engine,
        path: ConnectionPath,
        start_values: Tuple[Any, ...],
    ) -> List[Tuple[Any, ...]]:
        """All tuples at the end of ``path`` connected to ``start_values``.

        Composite paths chain the per-connection matching; duplicates
        (several routes to the same end tuple) collapse by key. Siblings
        come in key order.
        """
        frontier = [start_values]
        for traversal in path:
            next_frontier: List[Tuple[Any, ...]] = []
            seen = set()
            end_schema = engine.schema(traversal.end)
            for values in frontier:
                for matched in connected_tuples(engine, traversal, values):
                    key = end_schema.key_of(matched)
                    if key in seen:
                        continue
                    seen.add(key)
                    next_frontier.append(matched)
            frontier = next_frontier
            if not frontier:
                break
        return sorted(frontier, key=engine.schema(path.end).key_of)


# -- upward: which pivots a changed tuple can reach ---------------------------


class _Anchor:
    """One place in the tree where a tuple of some relation can occur.

    ``climb`` is the inverse path from the tuple to the relation of the
    tree node ``node_id`` (``None`` when the tuple *is* at that node —
    only the root anchor, whose tuples are already pivot tuples).
    """

    __slots__ = ("node_id", "climb")

    def __init__(self, node_id: str, climb: Optional[ConnectionPath]) -> None:
        self.node_id = node_id
        self.climb = climb


class ReferenceDependencyIndex:
    """Resolves changelog records to pivot keys by walking the engine."""

    def __init__(self, view_object: ViewObjectDefinition) -> None:
        self.view_object = view_object
        tree = view_object.tree
        self._anchors: Dict[str, List[_Anchor]] = {}
        # Inverse of each tree edge: child relation -> parent relation.
        self._up_paths: Dict[str, ConnectionPath] = {}
        root = tree.root
        self._add_anchor(root.relation, _Anchor(root.node_id, None))
        for node in tree.nodes():
            if node.path is None:
                continue
            traversals = node.path.traversals
            self._up_paths[node.node_id] = _inverse(traversals)
            # A tuple may sit at the end of any traversal prefix: the
            # final position is the node's own relation, earlier ones
            # are pruned intermediates. Each climbs to the parent node.
            for stop in range(1, len(traversals) + 1):
                relation = traversals[stop - 1].end
                self._add_anchor(
                    relation,
                    _Anchor(node.parent_id, _inverse(traversals[:stop])),
                )

    def _add_anchor(self, relation: str, anchor: _Anchor) -> None:
        self._anchors.setdefault(relation, []).append(anchor)

    def tracks(self, relation: str) -> bool:
        return relation in self._anchors

    def affected_pivots(
        self, engine: Engine, record: ChangeRecord
    ) -> Set[PivotKey]:
        affected: Set[PivotKey] = set()
        for values in (record.old_values, record.new_values):
            if values is not None:
                affected |= self.pivots_for(engine, record.relation, values)
        return affected

    def pivots_for(
        self, engine: Engine, relation: str, values: Sequence[Any]
    ) -> Set[PivotKey]:
        """Pivot keys reachable upward from one tuple of ``relation``."""
        pivots: Set[PivotKey] = set()
        for anchor in self._anchors.get(relation, ()):
            frontier: List[Tuple[Any, ...]] = [tuple(values)]
            if anchor.climb is not None:
                frontier = _follow(engine, anchor.climb, frontier)
            pivots |= self._climb_tree(engine, anchor.node_id, frontier)
        return pivots

    def _climb_tree(
        self, engine: Engine, node_id: str, frontier: List[Tuple[Any, ...]]
    ) -> Set[PivotKey]:
        tree = self.view_object.tree
        node = tree.node(node_id)
        while frontier and node.parent_id is not None:
            frontier = _follow(engine, self._up_paths[node.node_id], frontier)
            node = tree.node(node.parent_id)
        if not frontier:
            return set()
        schema = self.view_object.graph.relation(node.relation)
        return {schema.key_of(values) for values in frontier}


def _inverse(traversals: Sequence) -> ConnectionPath:
    return ConnectionPath([t.inverse() for t in reversed(tuple(traversals))])


def _follow(
    engine: Engine, path: ConnectionPath, starts: List[Tuple[Any, ...]]
) -> List[Tuple[Any, ...]]:
    """All tuples at the end of ``path`` connected to any start tuple.

    Multi-source variant of instantiation's path walk; duplicates
    collapse by key at every step so diamond routes stay linear.
    """
    frontier = starts
    for traversal in path:
        next_frontier: List[Tuple[Any, ...]] = []
        seen = set()
        end_schema = engine.schema(traversal.end)
        for values in frontier:
            for matched in connected_tuples(engine, traversal, values):
                key = end_schema.key_of(matched)
                if key in seen:
                    continue
                seen.add(key)
                next_frontier.append(matched)
        frontier = next_frontier
        if not frontier:
            break
    return frontier
