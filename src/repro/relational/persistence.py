"""JSON persistence of relation schemas and database contents.

Dump/load round-trips a whole engine: schemas (attribute domains,
nullability, keys) and every row. Dates serialize as ISO strings and are
revived through their attribute's domain, so both engines round-trip
losslessly.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Mapping

from repro.errors import SchemaError
from repro.relational.domains import DATE, domain_by_name
from repro.relational.engine import Engine
from repro.relational.schema import Attribute, RelationSchema

__all__ = [
    "schema_to_dict",
    "schema_from_dict",
    "dump_database",
    "load_database",
]

FORMAT_VERSION = 1


def schema_to_dict(schema: RelationSchema) -> Dict[str, Any]:
    return {
        "name": schema.name,
        "attributes": [
            {
                "name": attribute.name,
                "domain": attribute.domain.name,
                "nullable": attribute.nullable,
            }
            for attribute in schema.attributes
        ],
        "key": list(schema.key),
    }


def schema_from_dict(data: Mapping[str, Any]) -> RelationSchema:
    attributes = [
        Attribute(
            entry["name"],
            domain_by_name(entry["domain"]),
            nullable=bool(entry.get("nullable", False)),
        )
        for entry in data["attributes"]
    ]
    return RelationSchema(data["name"], attributes, key=data["key"])


def _encode_row(schema: RelationSchema, values) -> List[Any]:
    encoded = []
    for attribute, value in zip(schema.attributes, values):
        if value is not None and attribute.domain == DATE:
            encoded.append(value.isoformat())
        else:
            encoded.append(value)
    return encoded


def _decode_row(schema: RelationSchema, values) -> List[Any]:
    decoded = []
    for attribute, value in zip(schema.attributes, values):
        if value is not None and attribute.domain == DATE:
            decoded.append(datetime.date.fromisoformat(value))
        else:
            decoded.append(value)
    return decoded


def dump_database(engine: Engine) -> Dict[str, Any]:
    """Schemas and rows of every relation, as a JSON-safe dictionary."""
    relations = []
    for name in engine.relation_names():
        schema = engine.schema(name)
        relations.append(
            {
                "schema": schema_to_dict(schema),
                "rows": [
                    _encode_row(schema, values) for values in engine.scan(name)
                ],
            }
        )
    return {"format": FORMAT_VERSION, "relations": relations}


def load_database(engine: Engine, data: Mapping[str, Any]) -> Dict[str, int]:
    """Create and fill every stored relation; returns row counts.

    The engine must not already contain relations with the stored names.
    """
    if data.get("format") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported database dump format {data.get('format')!r}"
        )
    counts: Dict[str, int] = {}
    for entry in data["relations"]:
        schema = schema_from_dict(entry["schema"])
        engine.create_relation(schema)
        count = 0
        for row in entry["rows"]:
            engine.insert(schema.name, tuple(_decode_row(schema, row)))
            count += 1
        counts[schema.name] = count
    return counts
