"""Structural diff of two view-object instances.

``diff_instances`` reports, per tree node, which component tuples a
replacement would add, remove, or modify — the object-level view of
what VO-R is about to translate. The alignment mirrors the translation
algorithm's: by key first, leftovers pairwise, so a key change shows as
one ``rekeyed`` entry rather than an add/remove pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ViewObjectError
from repro.core.instance import ComponentTuple, Instance
from repro.core.view_object import ViewObjectDefinition

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
        if self.kind == "added":
            return f"{self.node_id}: + {self.key!r}"
        if self.kind == "removed":
            return f"{self.node_id}: - {self.key!r}"
        if self.kind == "rekeyed":
            extra = _render_changes(self.changes)
            return (
                f"{self.node_id}: {self.key!r} => {self.new_key!r}{extra}"
            )
        return f"{self.node_id}: ~ {self.key!r}{_render_changes(self.changes)}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentChange({self.describe()})"


def _render_changes(changes: Dict[str, Tuple[Any, Any]]) -> str:
    if not changes:
        return ""
    parts = [
        f"{name}: {old!r} -> {new!r}" for name, (old, new) in changes.items()
    ]
    return "  (" + ", ".join(parts) + ")"


def _key_of(
    view_object: ViewObjectDefinition, component: ComponentTuple
) -> Tuple[Any, ...]:
    node = view_object.node(component.node_id)
    schema = view_object.graph.relation(node.relation)
    return tuple(component.values.get(k) for k in schema.key)


def _changed_attributes(
    old: ComponentTuple, new: ComponentTuple
) -> Dict[str, Tuple[Any, Any]]:
    changed = {}
    for name in new.values:
        if old.values.get(name) != new.values.get(name):
            changed[name] = (old.values.get(name), new.values.get(name))
    return changed


def diff_instances(old: Instance, new: Instance) -> List[ComponentChange]:
    """All component-level differences, in BFS node order."""
    if old.view_object is not new.view_object and (
        old.view_object.name != new.view_object.name
    ):
        raise ViewObjectError(
            "cannot diff instances of different view objects "
            f"({old.view_object.name!r} vs {new.view_object.name!r})"
        )
    view_object = old.view_object
    result: List[ComponentChange] = []

    def walk(
        node_id: str,
        old_components: List[ComponentTuple],
        new_components: List[ComponentTuple],
    ) -> None:
        old_by_key = {
            _key_of(view_object, c): c for c in old_components
        }
        unmatched_new: List[ComponentTuple] = []
        pairs: List[Tuple[ComponentTuple, ComponentTuple]] = []
        for component in new_components:
            key = _key_of(view_object, component)
            match = old_by_key.pop(key, None)
            if match is None:
                unmatched_new.append(component)
            else:
                pairs.append((match, component))
        leftovers_old = list(old_by_key.values())
        while leftovers_old and unmatched_new:
            old_component = leftovers_old.pop(0)
            new_component = unmatched_new.pop(0)
            result.append(
                ComponentChange(
                    node_id,
                    "rekeyed",
                    _key_of(view_object, old_component),
                    new_key=_key_of(view_object, new_component),
                    changes=_changed_attributes(old_component, new_component),
                )
            )
            pairs.append((old_component, new_component))
        for old_component in leftovers_old:
            result.append(
                ComponentChange(
                    node_id, "removed", _key_of(view_object, old_component)
                )
            )
        for new_component in unmatched_new:
            result.append(
                ComponentChange(
                    node_id, "added", _key_of(view_object, new_component)
                )
            )
        for old_component, new_component in pairs:
            if (
                _key_of(view_object, old_component)
                == _key_of(view_object, new_component)
            ):
                changed = _changed_attributes(old_component, new_component)
                if changed:
                    result.append(
                        ComponentChange(
                            node_id,
                            "modified",
                            _key_of(view_object, old_component),
                            changes=changed,
                        )
                    )
            for child in view_object.tree.children(node_id):
                walk(
                    child.node_id,
                    old_component.child_tuples(child.node_id),
                    new_component.child_tuples(child.node_id),
                )

    walk(view_object.pivot_node_id, [old.root], [new.root])
    return result


def render_diff(changes: List[ComponentChange]) -> str:
    """Multi-line rendering; empty diff renders as '(no changes)'."""
    if not changes:
        return "(no changes)"
    return "\n".join(change.describe() for change in changes)
