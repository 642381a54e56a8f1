"""Hierarchical view-object instances (Figure 4).

An instance binds one pivot tuple plus, for every child node of the
tree, the *set* of connected component tuples — "hierarchical instances
that have atomic-valued, tuple-valued, and set-valued attributes". The
nested-dictionary constructor mirrors the paper's notation::

    (COURSE: CS345 (CURRICULUM: ...) (DEPARTMENT: Computer Science)
     (GRADES: ...) (STUDENT: ...))

becomes::

    omega.new_instance({
        "course_id": "CS345", ...,
        "CURRICULUM": [...],
        "DEPARTMENT": [{"dept_name": "Computer Science", ...}],
        "GRADES": [{..., }],
    })

where child lists are keyed by tree node id and may nest further.

The lists are sets, and their order is fixed at definition time: an
instance read from any engine lists siblings in primary-key order
(``Engine.find_by``), and :func:`align_siblings` reads two lists of one
node — a replacement's old and new, or any two instances being diffed —
by key, never by how they happen to be listed.
"""

from __future__ import annotations

import datetime
from itertools import zip_longest
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InstantiationError, ViewObjectError
from repro.core.view_object import ViewObjectDefinition

__all__ = [
    "ComponentTuple",
    "Instance",
    "align_siblings",
    "build_instance",
    "in_key_order",
]


class ComponentTuple:
    """One bound tuple at one node, with its child bindings."""

    __slots__ = ("node_id", "values", "children")

    def __init__(
        self,
        node_id: str,
        values: Dict[str, Any],
        children: Optional[Dict[str, List["ComponentTuple"]]] = None,
    ) -> None:
        self.node_id = node_id
        self.values = values
        self.children: Dict[str, List[ComponentTuple]] = children or {}

    def child_tuples(self, child_node_id: str) -> List["ComponentTuple"]:
        return self.children.get(child_node_id, [])

    def __getitem__(self, attribute: str) -> Any:
        return self.values[attribute]

    def get(self, attribute: str, default: Any = None) -> Any:
        return self.values.get(attribute, default)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ComponentTuple)
            and other.node_id == self.node_id
            and other.values == self.values
            and other.children == self.children
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentTuple({self.node_id!r}, {self.values!r})"


class Instance:
    """A complete view-object instance: the pivot tuple plus components."""

    __slots__ = ("view_object", "root")

    def __init__(
        self, view_object: ViewObjectDefinition, root: ComponentTuple
    ) -> None:
        if root.node_id != view_object.pivot_node_id:
            raise InstantiationError(
                f"instance root must be the pivot node "
                f"{view_object.pivot_node_id!r}, got {root.node_id!r}"
            )
        self.view_object = view_object
        self.root = root

    @property
    def key(self) -> Tuple[Any, ...]:
        """The object-key value of this instance (K(ω))."""
        return tuple(self.root.values[k] for k in self.view_object.object_key)

    def tuples_at(self, node_id: str) -> List[ComponentTuple]:
        """All bound tuples at ``node_id``, flattened across parents."""
        self.view_object.node(node_id)  # validates
        trail = [
            n.node_id for n in reversed(self.view_object.tree.path_to_root(node_id))
        ]
        current = [self.root]
        for step in trail[1:]:
            nxt: List[ComponentTuple] = []
            for component in current:
                nxt.extend(component.child_tuples(step))
            current = nxt
        return current

    def count_at(self, node_id: str) -> int:
        return len(self.tuples_at(node_id))

    def iter_nodes(self) -> Iterator[Tuple[str, List[ComponentTuple]]]:
        """(node_id, flattened tuples) for every node, BFS order."""
        for node in self.view_object.tree.bfs():
            yield node.node_id, self.tuples_at(node.node_id)

    # -- conversion ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Nested-dictionary form (inverse of ``new_instance``)."""

        def render(component: ComponentTuple) -> Dict[str, Any]:
            out: Dict[str, Any] = dict(component.values)
            for child_id, components in component.children.items():
                out[child_id] = [render(c) for c in components]
            return out

        return render(self.root)

    def describe(self) -> str:
        """Paper-style rendering: ``(COURSES: CS345 (GRADES: ...))``."""

        def render(component: ComponentTuple) -> str:
            node = self.view_object.node(component.node_id)
            schema = self.view_object.graph.relation(node.relation)
            key_values = ", ".join(
                str(component.values.get(k, "?")) for k in schema.key
            )
            parts = [f"({component.node_id}: {key_values}"]
            extras = [
                f"{a}={component.values[a]!r}"
                for a in self.view_object.projection(component.node_id).attributes
                if a not in schema.key
            ]
            if extras:
                parts.append(" [" + ", ".join(extras) + "]")
            for child_id in node.children:
                for child in component.child_tuples(child_id):
                    parts.append(" " + render(child))
            parts.append(")")
            return "".join(parts)

        return render(self.root)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and other.view_object.name == self.view_object.name
            and other.root == self.root
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.view_object.name!r}, key={self.key!r})"


def build_instance(
    view_object: ViewObjectDefinition, data: Mapping[str, Any]
) -> Instance:
    """Build an :class:`Instance` from nested dictionaries.

    Attribute keys must match each node's projection exactly; child
    lists are keyed by child node id and default to empty. Each node's
    shape comes from ``view_object.shapes``, derived once per definition.
    """
    shapes = view_object.shapes

    def build_component(node_id: str, payload: Mapping[str, Any]) -> ComponentTuple:
        if type(payload) is not dict and not isinstance(payload, Mapping):
            raise ViewObjectError(
                f"component {node_id!r}: expected a mapping of attributes "
                f"and child lists, got {type(payload).__name__}"
            )
        attributes, projected, child_ids = shapes[node_id]
        values: Dict[str, Any] = {}
        children: Dict[str, List[ComponentTuple]] = {}
        for key, value in payload.items():
            if key in child_ids:
                if not isinstance(value, (list, tuple)):
                    raise ViewObjectError(
                        f"component {node_id!r}: child {key!r} must be a "
                        f"list of tuples"
                    )
                children[key] = [
                    build_component(key, element) for element in value
                ]
            elif key in projected:
                values[key] = value
            else:
                raise ViewObjectError(
                    f"component {node_id!r}: {key!r} is neither a projected "
                    f"attribute nor a child node of {node_id!r}"
                )
        if len(values) != len(attributes):
            missing = [a for a in attributes if a not in values]
            raise ViewObjectError(
                f"component {node_id!r}: missing values for projected "
                f"attributes {missing!r}"
            )
        for child_id in child_ids:
            children.setdefault(child_id, [])
        return ComponentTuple(node_id, values, children)

    root = build_component(view_object.pivot_node_id, data)
    return Instance(view_object, root)


def align_siblings(
    olds: Sequence[Any],
    old_keys: Sequence[Tuple[Any, ...]],
    news: Sequence[Any],
    new_keys: Sequence[Tuple[Any, ...]],
) -> Tuple[List[Tuple[Any, Any]], int]:
    """Pair the old and new tuples of one sibling list (VO-R, §5.3).

    Both lists are read in key order. A new tuple pairs with the old
    tuple of its key; the leftovers pair up in key order on both sides,
    the surplus of either side with ``None``. Returns the pairs — those
    matched by key first, then the leftovers, each in key order — and how
    many matched. Within one list the inherited key part is shared, so
    leftovers pair on their own part (``A_j``); and the pairs depend on
    the sets the lists hold, never on the order they were listed in.
    """
    if len(olds) < 2 and len(news) < 2:  # nothing to order
        pairs = list(zip_longest(olds, news))
        return pairs, int(bool(olds and news) and old_keys[0] == new_keys[0])
    olds, old_keys = in_key_order(olds, old_keys)
    news, new_keys = in_key_order(news, new_keys)
    old_by_key = dict(zip(old_keys, olds))
    pairs: List[Tuple[Any, Any]] = []
    unmatched = []
    for key, new in zip(new_keys, news):
        old = old_by_key.pop(key, None)
        if old is None:
            unmatched.append(new)
        else:
            pairs.append((old, new))
    matched = len(pairs)
    if old_by_key or unmatched:
        leftovers = [old for key, old in zip(old_keys, olds) if key in old_by_key]
        pairs.extend(zip_longest(leftovers, unmatched))
    return pairs, matched


def in_key_order(
    items: Sequence[Any], keys: Sequence[Tuple[Any, ...]]
) -> Tuple[Sequence[Any], Sequence[Tuple[Any, ...]]]:
    """``items`` and their ``keys`` (one per item), both in key order,
    stably; as they came when they already are. Stored keys compare as
    they are; a payload's may hold nulls or values of another domain,
    which rank by kind first (the request is refused later, not here)."""
    if len(keys) < 2:
        return items, keys
    positions = range(len(keys))
    try:
        if keys == sorted(keys):
            return items, keys
        order = sorted(positions, key=keys.__getitem__)
    except TypeError:
        order = sorted(positions, key=lambda i: tuple(map(_ranked, keys[i])))
    return [items[i] for i in order], [keys[i] for i in order]


def _ranked(value: Any) -> Tuple[Any, ...]:
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)):
        return (1, "", value)
    if isinstance(value, (str, datetime.date)):
        return (2, type(value).__name__, value)
    return (3, type(value).__name__, repr(value))
