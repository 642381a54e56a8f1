"""Fluent helpers for declaring relation schemas.

The workload modules declare eight-plus relations each; the
:class:`SchemaBuilder` keeps those declarations terse and readable:

>>> from repro.relational.ddl import SchemaBuilder
>>> schema = (
...     SchemaBuilder("COURSES")
...     .text("course_id")
...     .text("title")
...     .integer("units")
...     .text("dept_name")
...     .key("course_id")
...     .build()
... )
>>> schema.key
('course_id',)
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import SchemaError
from repro.relational.domains import INTEGER, REAL, TEXT, Domain
from repro.relational.schema import Attribute, RelationSchema

__all__ = ["SchemaBuilder", "relation"]


class SchemaBuilder:
    """Incrementally assemble a :class:`RelationSchema`."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._attributes: List[Attribute] = []
        self._key: Optional[Sequence[str]] = None

    def attribute(
        self, name: str, domain: Domain, nullable: bool = False
    ) -> "SchemaBuilder":
        self._attributes.append(Attribute(name, domain, nullable))
        return self

    def text(self, name: str, nullable: bool = False) -> "SchemaBuilder":
        return self.attribute(name, TEXT, nullable)

    def integer(self, name: str, nullable: bool = False) -> "SchemaBuilder":
        return self.attribute(name, INTEGER, nullable)

    def real(self, name: str, nullable: bool = False) -> "SchemaBuilder":
        return self.attribute(name, REAL, nullable)

    def key(self, *names: str) -> "SchemaBuilder":
        if self._key is not None:
            raise SchemaError(f"relation {self._name!r}: key declared twice")
        self._key = names
        return self

    def build(self) -> RelationSchema:
        if self._key is None:
            raise SchemaError(f"relation {self._name!r}: no key declared")
        return RelationSchema(self._name, self._attributes, key=self._key)


def relation(name: str) -> SchemaBuilder:
    """Entry point: ``relation("COURSES").text("course_id")...``."""
    return SchemaBuilder(name)
