"""JSON persistence of structural schemas.

A structural schema is the contract everything else hangs off: storing
it next to the view-object catalog lets a whole PENGUIN session be
reconstructed offline (schema → objects → policies → data).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.errors import StructuralError
from repro.relational.persistence import schema_from_dict, schema_to_dict
from repro.structural.connections import Connection, ConnectionKind
from repro.structural.schema_graph import StructuralSchema

__all__ = ["graph_to_dict", "graph_from_dict"]

FORMAT_VERSION = 1


def graph_to_dict(graph: StructuralSchema) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "name": graph.name,
        "relations": [
            schema_to_dict(graph.relation(name))
            for name in graph.relation_names
        ],
        "connections": [
            {
                "name": connection.name,
                "kind": connection.kind.value,
                "source": connection.source,
                "target": connection.target,
                "source_attributes": list(connection.source_attributes),
                "target_attributes": list(connection.target_attributes),
            }
            for connection in graph.connections
        ],
    }


def graph_from_dict(data: Mapping[str, Any]) -> StructuralSchema:
    if data.get("format") != FORMAT_VERSION:
        raise StructuralError(
            f"unsupported structural-schema format {data.get('format')!r}"
        )
    graph = StructuralSchema(data.get("name", "schema"))
    for stored in data["relations"]:
        graph.add_relation(schema_from_dict(stored))
    for stored in data["connections"]:
        graph.add_connection(
            Connection(
                stored["name"],
                ConnectionKind(stored["kind"]),
                stored["source"],
                stored["target"],
                stored["source_attributes"],
                stored["target_attributes"],
            )
        )
    return graph
