"""Structural diff of two view-object instances.

``diff_instances`` reports, per tree node, which component tuples a
replacement would add, remove, or modify — the object-level view of
what VO-R is about to translate. The alignment is the translation
algorithm's own, :func:`~repro.core.instance.align_siblings`: by key
first, leftovers in key order, so a key change shows as one ``rekeyed``
entry rather than an add/remove pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ViewObjectError
from repro.core.instance import ComponentTuple, Instance, align_siblings

__all__ = ["diff_instances", "render_diff"]


class ComponentChange:
    """One difference at one node."""

    __slots__ = ("node_id", "kind", "key", "new_key", "changes")

    def __init__(
        self,
        node_id: str,
        kind: str,  # added | removed | modified | rekeyed
        key: Tuple[Any, ...],
        new_key: Optional[Tuple[Any, ...]] = None,
        changes: Optional[Dict[str, Tuple[Any, Any]]] = None,
    ) -> None:
        self.node_id = node_id
        self.kind = kind
        self.key = key
        self.new_key = new_key
        self.changes = changes or {}

    def describe(self) -> str:
        head = {"added": "+ ", "removed": "- ", "modified": "~ "}.get(self.kind)
        if head is None:  # rekeyed
            head = f"{self.key!r} => "
            key = self.new_key
        else:
            key = self.key
        parts = [f"{n}: {old!r} -> {new!r}" for n, (old, new) in self.changes.items()]
        extra = "  (" + ", ".join(parts) + ")" if parts else ""
        return f"{self.node_id}: {head}{key!r}{extra}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentChange({self.describe()})"


def _changed_attributes(
    old: ComponentTuple, new: ComponentTuple
) -> Dict[str, Tuple[Any, Any]]:
    get = old.values.get
    return {n: (get(n), v) for n, v in new.values.items() if get(n) != v}


def diff_instances(old: Instance, new: Instance) -> List[ComponentChange]:
    """All component-level differences, depth-first from the pivot; at
    each node the re-keyed, removed and added tuples first, in key order."""
    if old.view_object is not new.view_object and (
        old.view_object.name != new.view_object.name
    ):
        raise ViewObjectError(
            "cannot diff instances of different view objects "
            f"({old.view_object.name!r} vs {new.view_object.name!r})"
        )
    view_object = old.view_object
    result: List[ComponentChange] = []

    def walk(node_id: str, olds, news) -> None:
        relation = view_object.node(node_id).relation
        key_names = view_object.graph.relation(relation).key
        old_keys, new_keys = (
            [tuple(c.values.get(k) for k in key_names) for c in side]
            for side in (olds, news)
        )
        pairs, matched = align_siblings(
            list(zip(old_keys, olds)), old_keys, list(zip(new_keys, news)), new_keys
        )
        for index, (before, after) in enumerate(pairs):
            if after is None:
                result.append(ComponentChange(node_id, "removed", before[0]))
            elif before is None:
                result.append(ComponentChange(node_id, "added", after[0]))
            elif index >= matched:
                changes = _changed_attributes(before[1], after[1])
                result.append(
                    ComponentChange(node_id, "rekeyed", before[0], after[0], changes)
                )
        for index, (before, after) in enumerate(pairs):
            if before is None or after is None:
                continue
            (key, old_c), (_, new_c) = before, after
            changed = index < matched and _changed_attributes(old_c, new_c)
            if changed:
                result.append(ComponentChange(node_id, "modified", key, changes=changed))
            for child in view_object.tree.children(node_id):
                walk(
                    child.node_id,
                    old_c.child_tuples(child.node_id),
                    new_c.child_tuples(child.node_id),
                )

    walk(view_object.pivot_node_id, [old.root], [new.root])
    return result


def render_diff(changes: List[ComponentChange]) -> str:
    """Multi-line rendering; empty diff renders as '(no changes)'."""
    if not changes:
        return "(no changes)"
    return "\n".join(change.describe() for change in changes)
