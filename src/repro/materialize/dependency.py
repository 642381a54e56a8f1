"""Mapping base-table changes to the view instances they affect.

A view object's instance for pivot key ``k`` is assembled by walking the
projection tree downward from the pivot tuple (Figure 4). Conversely, a
changed base tuple can only alter the instances whose downward walk
*reaches* it — so the affected pivot keys are found by following the
same connection paths in the opposite direction, from the changed tuple
up to the pivot relation.

:class:`DependencyIndex` compiles, for every relation that appears
anywhere in the tree — including relations that only occur as pruned
intermediates of composite edge paths (Figure 3's ``COURSES --* GRADES
*-- STUDENT`` with GRADES elided) — the list of *anchors*: positions in
the tree where a tuple of that relation can sit, each with its climb to
the pivot.

Most climbs need no engine. Ownership and subset connections put the
owner's key inside the owned tuple (X1 = K(R1), Definitions 2.2 and
2.4), and a reference holds the referenced key (X2 = K(R2), Definition
2.3): a climb step along any of them lands on the end relation's *key*,
and when the next step starts from key attributes again the end tuple
itself is never needed. For the whole dependency island (Definition
5.1), and for a referencing tuple's way up to what it references, the
pivot key is therefore a **projection of the changed tuple**, read off
the changelog record by position. Only a step that fans out — from a
referenced tuple to the tuples referencing it (a changed DEPARTMENT to
its COURSES) — has to ask the engine; the climb is split into those
leading engine steps and the projection that finishes it.

The projection names the pivot the changed tuple *belongs under*,
whether or not every owner in between still exists; the engine walk it
replaced returned nothing once an intermediate owner was gone. The
result is thus a superset of the walked one, equal whenever the walked
tuples exist. That is sound — more invalidation never serves a stale
instance — and unobservable: ``MaterializedView.evict`` is a no-op
for a key that is not cached, and ``stats.invalidations`` counts only
cached keys.

The same definition-time knowledge says what a record can do to an
instance that is already cached. Which tuples an instance holds depends
only on connecting attributes: the walk matches the attributes a
traversal starts from against the ones it ends at, and nothing else.
Per relation the index therefore also compiles its **frozen positions**
— the key plus every attribute any traversal of any edge path starts
from or ends at on that relation, pruned intermediates included — and
its **patch sites**, the tree nodes whose tuples come from it.
A ``replace`` record whose old and new tuples agree on the frozen
positions changed no instance's membership or shape, only the values
shown at those sites, and the record carries them: see
:meth:`DependencyIndex.patch_sites`. A tuple is found in a cached
instance by its key, so a relation with a node whose projection drops
the key is never patched.

The index is deliberately *not* a stored map from ``(relation, key)`` to
pivot keys: a stored map cannot answer for freshly *inserted* tuples
(they were never part of any cached instance), whereas the climb handles
inserts, deletes, and replaces uniformly from the tuple values carried
by the changelog record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instantiation import Getter, Step, compile_path, follow_path
from repro.core.view_object import ViewObjectDefinition
from repro.relational.changelog import ChangeRecord
from repro.relational.engine import Engine
from repro.relational.schema import tuple_getter
from repro.structural.connections import Traversal
from repro.structural.schema_graph import StructuralSchema

__all__ = ["DependencyIndex"]

PivotKey = Tuple[Any, ...]
# One place in the tree where a tuple of some relation can occur, as its
# compiled climb: (engine steps to follow first, connecting values the
# projection starts from — a null among them matches nothing —, pivot
# key of a tuple those steps reached).
Anchor = Tuple[Tuple[Step, ...], Getter, Getter]
# One tree node showing tuples of some relation: (node ids from below
# the pivot down to it, key of a bound tuple's values, projected
# attribute names, their values in a base tuple).
PatchSite = Tuple[Tuple[str, ...], Getter, Tuple[str, ...], Getter]


class DependencyIndex:
    """Resolves changelog records to the pivot keys they may affect."""

    def __init__(self, view_object: ViewObjectDefinition) -> None:
        self.view_object = view_object
        graph = view_object.graph
        tree = view_object.tree
        pivot = tree.root.relation
        self._anchors: Dict[str, List[Anchor]] = {
            pivot: [_compile_climb(graph, pivot, [])]
        }
        for node in tree.nodes():
            if node.path is None:
                continue
            above = _inverse(
                t
                for n in tree.path_to_root(node.parent_id)
                if n.path is not None
                for t in reversed(n.path.traversals)
            )
            # A tuple may sit at the end of any traversal prefix: the
            # final position is the node's own relation, earlier ones
            # are pruned intermediates. Each climbs to the parent node
            # and on to the root.
            traversals = node.path.traversals
            for stop in range(1, len(traversals) + 1):
                climb = _inverse(reversed(traversals[:stop])) + above
                self._anchors.setdefault(traversals[stop - 1].end, []).append(
                    _compile_climb(graph, pivot, climb)
                )
        frozen = {name: set(graph.relation(name).key) for name in self._anchors}
        sites: Dict[str, List[PatchSite]] = {name: [] for name in self._anchors}
        keyless = set()
        for node in tree.nodes():
            for traversal in node.path.traversals if node.path else ():
                frozen[traversal.start].update(traversal.start_attributes)
                frozen[traversal.end].update(traversal.end_attributes)
            schema = graph.relation(node.relation)
            projection = view_object.projection(node.node_id)
            attributes = projection.attributes
            if not projection.covers(schema.key):
                keyless.add(node.relation)
            trail = [n.node_id for n in reversed(tree.path_to_root(node.node_id))]
            sites[node.relation].append(
                (
                    tuple(trail[1:]),
                    tuple_getter(schema.key),
                    attributes,
                    tuple_getter(schema.positions(attributes)),
                )
            )
        # relation -> (frozen values of a tuple, its patch sites; None
        # where a node drops the key, so the relation always evicts).
        self._patches: Dict[
            str, Tuple[Getter, Optional[Tuple[PatchSite, ...]]]
        ] = {
            name: (
                tuple_getter(graph.relation(name).positions(sorted(frozen[name]))),
                None if name in keyless else tuple(sites[name]),
            )
            for name in self._anchors
        }

    @property
    def relations(self) -> Tuple[str, ...]:
        """Every relation whose changes can affect this view object."""
        return tuple(self._anchors)

    def tracks(self, relation: str) -> bool:
        return relation in self._anchors

    # -- classification ---------------------------------------------------------

    def patch_sites(
        self, record: ChangeRecord
    ) -> Optional[Tuple[PatchSite, ...]]:
        """Where a tracked ``record`` overwrites cached values in place.

        ``None`` means evict: an insert, a delete, a replace that moved
        the key or a connecting attribute, or a relation whose tuples
        cannot be found by key. Otherwise the instances under
        ``pivots_for(new_values)`` hold the same tuples as before and
        differ only at the returned sites — none at all for a relation
        that only occurs as a pruned intermediate.
        """
        frozen_of, sites = self._patches[record.relation]
        if (
            sites is None
            or record.kind != "replace"
            or frozen_of(record.old_values) != frozen_of(record.new_values)
        ):
            return None
        return sites

    # -- resolution -------------------------------------------------------------

    def affected_pivots(
        self, engine: Engine, record: ChangeRecord
    ) -> Set[PivotKey]:
        """Pivot keys whose instances record ``record`` may have changed.

        Replaces resolve both the old and the new tuple values so that
        rows migrating between parents invalidate both sides.
        """
        affected: Set[PivotKey] = set()
        for values in (record.old_values, record.new_values):
            if values is not None:
                affected |= self.pivots_for(engine, record.relation, values)
        return affected

    def pivots_for(
        self, engine: Engine, relation: str, values: Sequence[Any]
    ) -> Set[PivotKey]:
        """Pivot keys reachable upward from one tuple of ``relation``.

        A superset of what walking the engine all the way would reach:
        see the module docstring. No engine read happens for a relation
        whose every anchor climbs by projection.
        """
        pivots: Set[PivotKey] = set()
        for steps, entry_of, pivot_of in self._anchors.get(relation, ()):
            for reached in follow_path(engine, steps, (values,)):
                if None not in entry_of(reached):
                    pivots.add(pivot_of(reached))
        return pivots


def _inverse(traversals) -> List[Traversal]:
    return [t.inverse() for t in traversals]


def _compile_climb(
    graph: StructuralSchema, pivot: str, climb: Sequence[Traversal]
) -> Anchor:
    """Split a climb into engine steps and the projection finishing it.

    The projection takes over at the longest suffix of ``climb`` in
    which every step lands on its end relation's key and every step
    after the first starts from key attributes: along it each end tuple
    is determined, key and all, by the tuple the suffix starts from.
    """
    split = len(climb)
    while split and _lands_on_key(graph, climb[split - 1]) and (
        split == len(climb) or _starts_from_key(graph, climb[split])
    ):
        split -= 1
    projected = climb[split:]
    start = graph.relation(projected[0].start if projected else pivot)
    # Attribute of the relation the climb has reached -> where its value
    # sits in the tuple the projection starts from.
    source = {name: start.position(name) for name in start.attribute_names}
    entry = None
    for step in projected:
        source = {
            end: source[begin]
            for begin, end in zip(step.start_attributes, step.end_attributes)
        }
        if entry is None:
            entry = tuple(source.values())
    key = tuple(source[name] for name in graph.relation(pivot).key)
    return (
        compile_path(graph, climb[:split]),
        tuple_getter(entry or key),
        tuple_getter(key),
    )


def _lands_on_key(graph: StructuralSchema, step: Traversal) -> bool:
    return set(step.end_attributes) == set(graph.relation(step.end).key)


def _starts_from_key(graph: StructuralSchema, step: Traversal) -> bool:
    return set(step.start_attributes) <= set(graph.relation(step.start).key)
