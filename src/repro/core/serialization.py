"""Persistence of view-object definitions and translator policies.

"A view object is an uninstantiated window onto the underlying database;
that is, only its definition is saved while base data remains stored in
the relational database." This module is that saving: definitions and
the policies the dialog produced serialize to plain dictionaries (and
JSON), and deserialize against a structural schema — the object
catalog a PENGUIN-style system keeps between sessions.

Completers are code, not data: a policy serialized here always
deserializes with the default null completer, and callers re-attach
application completers after loading.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.errors import ViewObjectError
from repro.core.projection import Projection
from repro.core.projection_tree import ProjectionTree
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.core.view_object import ViewObjectDefinition
from repro.structural.connections import Traversal
from repro.structural.paths import ConnectionPath
from repro.structural.schema_graph import StructuralSchema

__all__ = [
    "view_object_to_dict",
    "view_object_from_dict",
    "policy_to_dict",
    "policy_from_dict",
]

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# View-object definitions
# ---------------------------------------------------------------------------


def view_object_to_dict(view_object: ViewObjectDefinition) -> Dict[str, Any]:
    """A JSON-safe description of a view-object definition."""
    nodes: List[Dict[str, Any]] = []
    for node in view_object.tree.bfs():
        entry: Dict[str, Any] = {
            "id": node.node_id,
            "relation": node.relation,
            "attributes": list(
                view_object.projection(node.node_id).attributes
            ),
        }
        if node.parent_id is not None:
            entry["parent"] = node.parent_id
            entry["path"] = [
                {"connection": t.connection.name, "forward": t.forward}
                for t in node.path
            ]
        nodes.append(entry)
    return {
        "format": FORMAT_VERSION,
        "name": view_object.name,
        "schema": view_object.graph.name,
        "updatable": view_object.updatable,
        "nodes": nodes,
    }


def view_object_from_dict(
    graph: StructuralSchema, data: Mapping[str, Any]
) -> ViewObjectDefinition:
    """Rebuild a definition against ``graph``.

    The schema the object was defined on must still contain every
    relation and connection the stored tree references; mismatches raise
    :class:`ViewObjectError` with a pointed message.
    """
    if data.get("format") != FORMAT_VERSION:
        raise ViewObjectError(
            f"unsupported view-object format {data.get('format')!r}"
        )
    nodes = list(data["nodes"])
    if not nodes:
        raise ViewObjectError("stored view object has no nodes")
    by_id = {entry["id"]: entry for entry in nodes}
    roots = [entry for entry in nodes if "parent" not in entry]
    if len(roots) != 1:
        raise ViewObjectError(
            f"stored view object must have exactly one root, found "
            f"{len(roots)}"
        )
    root = roots[0]
    tree = ProjectionTree(root["relation"], root_id=root["id"])
    placed = {root["id"]}
    pending = [entry for entry in nodes if "parent" in entry]
    while pending:
        progressed = False
        for entry in list(pending):
            if entry["parent"] not in placed:
                continue
            traversals = []
            for hop in entry["path"]:
                connection = graph.connection(hop["connection"])
                traversals.append(Traversal(connection, hop["forward"]))
            tree.add_child(
                entry["parent"],
                entry["relation"],
                ConnectionPath(traversals),
                node_id=entry["id"],
            )
            placed.add(entry["id"])
            pending.remove(entry)
            progressed = True
        if not progressed:
            orphans = sorted(entry["id"] for entry in pending)
            raise ViewObjectError(
                f"stored view object has orphaned nodes: {orphans!r}"
            )
    projections = {
        entry["id"]: Projection(entry["relation"], entry["attributes"])
        for entry in nodes
    }
    return ViewObjectDefinition(
        data["name"],
        graph,
        tree,
        projections,
        updatable=bool(data.get("updatable", True)),
    )


# ---------------------------------------------------------------------------
# Translator policies
# ---------------------------------------------------------------------------


def policy_to_dict(policy: TranslatorPolicy) -> Dict[str, Any]:
    """A JSON-safe description of a translator policy (minus completer)."""
    return {
        "format": FORMAT_VERSION,
        "allow_insertion": policy.allow_insertion,
        "allow_deletion": policy.allow_deletion,
        "allow_replacement": policy.allow_replacement,
        "authorized_users": (
            None
            if policy.authorized_users is None
            else sorted(policy.authorized_users)
        ),
        "relations": {
            relation: {
                "can_modify": rp.can_modify,
                "can_insert": rp.can_insert,
                "can_replace_existing": rp.can_replace_existing,
                "allow_key_replacement": rp.allow_key_replacement,
                "allow_db_key_replacement": rp.allow_db_key_replacement,
                "allow_merge_on_key_conflict": rp.allow_merge_on_key_conflict,
                "on_reference_delete": rp.on_reference_delete.value,
            }
            for relation, rp in policy.relations.items()
        },
    }


def policy_from_dict(data: Mapping[str, Any]) -> TranslatorPolicy:
    if data.get("format") != FORMAT_VERSION:
        raise ViewObjectError(
            f"unsupported policy format {data.get('format')!r}"
        )
    relations = {}
    for relation, stored in data.get("relations", {}).items():
        relations[relation] = RelationPolicy(
            can_modify=stored["can_modify"],
            can_insert=stored["can_insert"],
            can_replace_existing=stored["can_replace_existing"],
            allow_key_replacement=stored["allow_key_replacement"],
            allow_db_key_replacement=stored["allow_db_key_replacement"],
            allow_merge_on_key_conflict=stored["allow_merge_on_key_conflict"],
            on_reference_delete=ReferenceRepair(
                stored["on_reference_delete"]
            ),
        )
    return TranslatorPolicy(
        allow_insertion=bool(data.get("allow_insertion", True)),
        allow_deletion=bool(data.get("allow_deletion", True)),
        allow_replacement=bool(data.get("allow_replacement", True)),
        relations=relations,
        authorized_users=data.get("authorized_users"),
    )
