"""Referential-integrity checking for structural schemas.

Each connection kind carries an *existence* rule (the first criterion of
Definitions 2.2-2.4):

* ownership ``R1 --* R2``: every tuple of R2 is connected to an owner in R1;
* reference ``R1 --> R2``: every tuple of R1 either connects to a
  referenced tuple in R2 or holds nulls in X1;
* subset ``R1 ==>o R2``: every tuple of R2 connects to a tuple in R1.

:class:`IntegrityChecker` verifies all of them against live data. The
module also provides :func:`connected_tuples`, the lookup primitive used
throughout update propagation ("two tuples are connected iff the values
of the connecting attributes match", Definition 2.1).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.relational.engine import Engine
from repro.structural.connections import Connection, ConnectionKind, Traversal
from repro.structural.schema_graph import StructuralSchema

__all__ = ["Violation", "IntegrityChecker"]


def connection_entry(
    engine: Engine,
    relation: str,
    values: Sequence[Any],
    attribute_names: Sequence[str],
) -> Tuple[Any, ...]:
    """Project a value tuple of ``relation`` onto connecting attributes."""
    schema = engine.schema(relation)
    return schema.project(values, attribute_names)


def connected_tuples(
    engine: Engine,
    traversal: Traversal,
    start_values: Sequence[Any],
) -> List[Tuple[Any, ...]]:
    """Tuples at ``traversal.end`` connected to one tuple at ``traversal.start``.

    Returns the empty list when any connecting value is null (a null
    never matches).
    """
    entry = connection_entry(
        engine, traversal.start, start_values, traversal.start_attributes
    )
    if any(v is None for v in entry):
        return []
    return engine.find_by(traversal.end, traversal.end_attributes, entry)


class Violation:
    """One integrity violation found by the checker."""

    __slots__ = ("connection", "rule", "relation", "key", "message")

    def __init__(
        self,
        connection: Connection,
        rule: str,
        relation: str,
        key: Tuple[Any, ...],
        message: str,
    ) -> None:
        self.connection = connection
        self.rule = rule
        self.relation = relation
        self.key = key
        self.message = message

    def __repr__(self) -> str:
        return f"Violation({self.rule}: {self.message})"


class IntegrityChecker:
    """Checks live data against every connection's existence rule."""

    def __init__(self, graph: StructuralSchema) -> None:
        self.graph = graph

    def check(self, engine: Engine) -> List[Violation]:
        """All violations in the database, across every connection."""
        violations: List[Violation] = []
        for connection in self.graph.connections:
            violations.extend(self.check_connection(engine, connection))
        return violations

    def is_consistent(self, engine: Engine) -> bool:
        return not self.check(engine)

    def check_connection(
        self, engine: Engine, connection: Connection
    ) -> List[Violation]:
        if connection.kind is ConnectionKind.OWNERSHIP:
            return self._check_child_existence(
                engine, connection, rule="ownership-1",
                description="has no owning tuple",
            )
        if connection.kind is ConnectionKind.SUBSET:
            return self._check_child_existence(
                engine, connection, rule="subset-1",
                description="has no general tuple",
            )
        return self._check_reference(engine, connection)

    def _check_child_existence(
        self,
        engine: Engine,
        connection: Connection,
        rule: str,
        description: str,
    ) -> List[Violation]:
        """Every R2 tuple must connect upward to an R1 tuple."""
        violations = []
        schema2 = engine.schema(connection.target)
        backward = Traversal(connection, forward=False)
        for values in engine.scan(connection.target):
            if not connected_tuples(engine, backward, values):
                key = schema2.key_of(values)
                violations.append(
                    Violation(
                        connection,
                        rule,
                        connection.target,
                        key,
                        f"{connection.target} tuple {key!r} {description} "
                        f"in {connection.source} (connection {connection.name!r})",
                    )
                )
        return violations

    def _check_reference(
        self, engine: Engine, connection: Connection
    ) -> List[Violation]:
        """Every R1 tuple with non-null X1 must connect to an R2 tuple."""
        violations = []
        schema1 = engine.schema(connection.source)
        forward = Traversal(connection, forward=True)
        for values in engine.scan(connection.source):
            entry = schema1.project(values, connection.source_attributes)
            if all(v is None for v in entry):
                continue
            if any(v is None for v in entry):
                key = schema1.key_of(values)
                violations.append(
                    Violation(
                        connection,
                        "reference-1",
                        connection.source,
                        key,
                        f"{connection.source} tuple {key!r} has partially "
                        f"null reference {entry!r} "
                        f"(connection {connection.name!r})",
                    )
                )
                continue
            if not connected_tuples(engine, forward, values):
                key = schema1.key_of(values)
                violations.append(
                    Violation(
                        connection,
                        "reference-1",
                        connection.source,
                        key,
                        f"{connection.source} tuple {key!r} references "
                        f"missing {connection.target} tuple {entry!r} "
                        f"(connection {connection.name!r})",
                    )
                )
        return violations
