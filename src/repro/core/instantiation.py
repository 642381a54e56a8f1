"""Dynamic instantiation of view objects (Figure 4).

"A query on a view object is composed dynamically with the object's
structure to obtain a relational query that can be executed against the
database. View-object instances are assembled from the set of relational
tuples satisfying the request."

The :class:`Instantiator` binds base tuples into hierarchical instances:
starting from pivot tuples selected by a relational predicate, it walks
every tree edge — including composite multi-connection paths (Figure 3)
— collecting the connected tuples at each node, then projects them onto
the node's projection.

Everything about that walk except the data is fixed when the object is
defined (Section 6), so it is compiled once into a plan of positions:
per node the projected attribute names and where they sit in a base
tuple, per child edge the steps of its path. Assembly is then tuple
indexing plus engine probes, one per sibling list and child edge: a
tuple alone in its list follows each edge with ``engine.find_by``, and
a list of two or more asks ``engine.find_by_many`` once per single-step
edge for all its tuples (Horn/Perera/Cheney's join of a delta *as a
relation*, PAPERS.md). The plan holds no engine — it takes one per
call — so the same plan runs over a backend, a ``BufferedEngine``
overlay or any delegating proxy. Use ``view_object.instantiator`` to
share one compiled plan per object; ``tests/reference_walk.py`` keeps
the uncompiled walk as the oracle.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.instance import ComponentTuple, Instance
from repro.core.view_object import ViewObjectDefinition
from repro.errors import ViewObjectError
from repro.relational.engine import Engine
from repro.relational.expressions import Expression, TRUE
from repro.relational.schema import tuple_getter
from repro.structural.connections import Traversal
from repro.structural.schema_graph import StructuralSchema

__all__ = ["Instantiator", "compile_path", "follow_path", "object_key"]

Values = Tuple[Any, ...]
Getter = Callable[[Sequence[Any]], Values]
# One traversal resolved against the schemas: (connecting values of a
# start tuple, end relation, end attributes, key of an end tuple).
Step = Tuple[Getter, str, Tuple[str, ...], Getter]
# (node id, projected attribute names, their values in a base tuple,
# ((child plan, steps of the edge path), ...)).
NodePlan = Tuple[str, Tuple[str, ...], Getter, Tuple[Any, ...]]


def compile_path(
    graph: StructuralSchema, traversals: Sequence[Traversal]
) -> Tuple[Step, ...]:
    """Resolve a connection path's attribute names to positions."""
    steps = []
    for traversal in traversals:
        start = graph.relation(traversal.start)
        end = graph.relation(traversal.end)
        steps.append(
            (
                tuple_getter(start.positions(traversal.start_attributes)),
                traversal.end,
                traversal.end_attributes,
                tuple_getter(end.positions(end.key)),
            )
        )
    return tuple(steps)


def follow_path(
    engine: Engine, steps: Sequence[Step], frontier: Sequence[Values]
) -> Sequence[Values]:
    """All tuples at the end of a compiled path connected to any tuple
    of ``frontier``.

    Two tuples are connected iff the values of the connecting attributes
    match, and a null never matches (Definition 2.1). Composite paths
    chain the per-connection matching; duplicates (several routes to the
    same end tuple) collapse by key at every step. The answer is in key
    order, as ``find_by``'s is: a composite path sorts once at its end.
    """
    for entry_of, end, end_attributes, key_of in steps:
        reached: List[Values] = []
        seen = set()
        for values in frontier:
            entry = entry_of(values)
            if None in entry:
                continue
            for matched in engine.find_by(end, end_attributes, entry):
                key = key_of(matched)
                if key not in seen:
                    seen.add(key)
                    reached.append(matched)
        frontier = reached
        if not frontier:
            break
    if len(steps) > 1:
        frontier.sort(key=steps[-1][3])
    return frontier


def object_key(name: str, key: Sequence[Any]) -> Values:
    """``key`` as an object key of view object ``name``: a tuple of
    attribute values. A ``str`` or ``bytes`` is refused rather than split
    into characters — ``"M100"`` is not the key ``("M100",)``."""
    if isinstance(key, (str, bytes)):
        raise ViewObjectError(
            f"view object {name!r}: an object key is a sequence of "
            f"attribute values, not {key!r}; pass ({key!r},)"
        )
    return tuple(key)


class Instantiator:
    """Assembles instances of one view object from an engine."""

    def __init__(self, view_object: ViewObjectDefinition) -> None:
        self.view_object = view_object
        self.graph = view_object.graph
        self._plan = self._compile(view_object.pivot_node_id)

    def _compile(self, node_id: str) -> NodePlan:
        view_object = self.view_object
        schema = self.graph.relation(view_object.node(node_id).relation)
        attributes = view_object.projection(node_id).attributes
        edges = tuple(
            (self._compile(child.node_id), compile_path(self.graph, child.path))
            for child in view_object.tree.children(node_id)
        )
        return (
            node_id,
            attributes,
            tuple_getter(schema.positions(attributes)),
            edges,
        )

    # -- public API ---------------------------------------------------------------

    def by_key(self, engine: Engine, key: Sequence[Any]) -> Optional[Instance]:
        """The instance whose object key equals ``key``, or ``None``."""
        pivot = self.view_object.pivot_relation
        values = engine.get(pivot, tuple(key))
        if values is None:
            return None
        return self.assemble(engine, values)

    def where(
        self, engine: Engine, predicate: Expression = TRUE
    ) -> List[Instance]:
        """All instances whose pivot tuple satisfies ``predicate``."""
        pivot = self.view_object.pivot_relation
        instances = []
        for values in engine.select(pivot, predicate):
            instances.append(self.assemble(engine, values))
        return instances

    def all(self, engine: Engine) -> List[Instance]:
        return self.where(engine, TRUE)

    # -- assembly -------------------------------------------------------------------

    def assemble(self, engine: Engine, pivot_values: Tuple[Any, ...]) -> Instance:
        """Assemble the instance rooted at one already-fetched pivot tuple.

        Public so callers that select pivot tuples themselves — the
        materialized-view cache re-assembling a single invalidated
        instance, for example — can reuse the walk without a redundant
        key lookup.
        """
        return Instance(
            self.view_object, _bind(engine, self._plan, pivot_values)
        )


def _bind(engine: Engine, plan: NodePlan, base_values: Values) -> ComponentTuple:
    """A tuple alone in its sibling list (the pivot, or an only child):
    each child edge is one :func:`follow_path`. The short-list test is
    inlined: a flat instance is all only children, and a call per edge
    showed in its read latency."""
    node_id, attributes, values_of, edges = plan
    children = {}
    for child, steps in edges:
        found = follow_path(engine, steps, (base_values,))
        children[child[0]] = (
            [_bind(engine, child, values) for values in found]
            if len(found) < 2
            else _bind_siblings(engine, child, found)
        )
    return ComponentTuple(
        node_id, dict(zip(attributes, values_of(base_values))), children
    )


def _bind_siblings(
    engine: Engine, plan: NodePlan, siblings: Sequence[Values]
) -> List[ComponentTuple]:
    """One sibling list. Two or more tuples share one ``find_by_many``
    per single-step child edge — the edge joined with the list as a
    relation — and each tuple takes its answer, which is exactly what
    :func:`follow_path` would have found for it alone. A composite
    (Figure 3) edge is followed per tuple. A shorter list is bound tuple
    by tuple, as :func:`_bind` binds it: batching it would only add work
    (DESIGN.md "Read path": a level-wise walk of every node made flat
    charts slower to read)."""
    if len(siblings) < 2:
        return [_bind(engine, plan, values) for values in siblings]
    node_id, attributes, values_of, edges = plan
    bound = [
        ComponentTuple(node_id, dict(zip(attributes, values_of(values))), {})
        for values in siblings
    ]
    for child, steps in edges:
        child_id = child[0]
        if len(steps) > 1:
            for component, values in zip(bound, siblings):
                component.children[child_id] = _bind_siblings(
                    engine, child, follow_path(engine, steps, (values,))
                )
            continue
        entry_of, end, end_attributes, _ = steps[0]
        entries = [entry_of(values) for values in siblings]
        # A null never matches (Definition 2.1): such a tuple has no
        # children along this edge, and its entry is not asked.
        asked = [entry for entry in entries if None not in entry]
        found = engine.find_by_many(end, end_attributes, asked) if asked else {}
        for component, entry in zip(bound, entries):
            component.children[child_id] = _bind_siblings(
                engine, child, found.get(entry, ())
            )
    return bound
