"""The structural schema: a directed graph of relations and connections.

"The structural model defines a directed-graph representation of a
database, where vertices correspond to relations and edges to
connections" (Section 2). :class:`StructuralSchema` is that graph plus
the relation catalog, with traversal helpers used by the view-object
tree builder and the update-propagation machinery.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConnectionError, StructuralError, UnknownRelationError
from repro.relational.engine import Engine
from repro.relational.schema import RelationSchema
from repro.structural.connections import Connection, ConnectionKind, Traversal
from repro.structural.validation import validate_connection

__all__ = ["StructuralSchema"]


class StructuralSchema:
    """Relation catalog + typed connections, as one directed graph."""

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._relations: Dict[str, RelationSchema] = {}
        self._connections: Dict[str, Connection] = {}
        self._outgoing: Dict[str, List[Connection]] = {}
        self._incoming: Dict[str, List[Connection]] = {}

    # -- construction ----------------------------------------------------------

    def add_relation(self, schema: RelationSchema) -> "StructuralSchema":
        if schema.name in self._relations:
            raise StructuralError(f"relation {schema.name!r} already declared")
        self._relations[schema.name] = schema
        self._outgoing[schema.name] = []
        self._incoming[schema.name] = []
        return self

    def add_connection(self, connection: Connection) -> "StructuralSchema":
        if connection.name in self._connections:
            raise ConnectionError(
                f"connection {connection.name!r} already declared"
            )
        validate_connection(connection, self._relations)
        self._connections[connection.name] = connection
        self._outgoing[connection.source].append(connection)
        self._incoming[connection.target].append(connection)
        return self

    def ownership(
        self,
        name: str,
        source: str,
        target: str,
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
    ) -> "StructuralSchema":
        """Declare an ownership connection ``source --* target``."""
        return self.add_connection(
            Connection(
                name,
                ConnectionKind.OWNERSHIP,
                source,
                target,
                source_attributes,
                target_attributes,
            )
        )

    def reference(
        self,
        name: str,
        source: str,
        target: str,
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
    ) -> "StructuralSchema":
        """Declare a reference connection ``source --> target``."""
        return self.add_connection(
            Connection(
                name,
                ConnectionKind.REFERENCE,
                source,
                target,
                source_attributes,
                target_attributes,
            )
        )

    def subset(
        self,
        name: str,
        source: str,
        target: str,
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
    ) -> "StructuralSchema":
        """Declare a subset connection ``source ==>o target``."""
        return self.add_connection(
            Connection(
                name,
                ConnectionKind.SUBSET,
                source,
                target,
                source_attributes,
                target_attributes,
            )
        )

    # -- catalog access ----------------------------------------------------------

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def connection(self, name: str) -> Connection:
        try:
            return self._connections[name]
        except KeyError:
            raise ConnectionError(f"unknown connection: {name!r}") from None

    @property
    def connections(self) -> Tuple[Connection, ...]:
        return tuple(self._connections.values())

    # -- graph traversal ------------------------------------------------------------

    def connections_from(
        self, relation: str, kind: Optional[ConnectionKind] = None
    ) -> List[Connection]:
        """Connections whose *source* is ``relation``."""
        self.relation(relation)
        result = self._outgoing[relation]
        if kind is not None:
            result = [c for c in result if c.kind is kind]
        return list(result)

    def connections_to(
        self, relation: str, kind: Optional[ConnectionKind] = None
    ) -> List[Connection]:
        """Connections whose *target* is ``relation``."""
        self.relation(relation)
        result = self._incoming[relation]
        if kind is not None:
            result = [c for c in result if c.kind is kind]
        return list(result)

    def traversals_from(self, relation: str) -> List[Traversal]:
        """All edges leaving ``relation``, forward and inverse.

        The view-object tree builder expands paths in both directions —
        "if there is a connection C from R1 to R2, there is an inverse
        connection C^-1 from R2 to R1".
        """
        return [
            Traversal(connection, forward=True)
            for connection in self.connections_from(relation)
        ] + [
            Traversal(connection, forward=False)
            for connection in self.connections_to(relation)
        ]

    def undirected_cycles_exist_within(self, relations: Iterable[str]) -> bool:
        """True if the subgraph induced by ``relations`` has a circuit.

        Circuits are what force the tree builder to duplicate nodes
        (Figure 2b duplicates PEOPLE). Parallel connections between the
        same pair of relations count as a circuit.
        """
        allowed = set(relations)
        for name in allowed:
            self.relation(name)
        edges = [
            c
            for c in self._connections.values()
            if c.source in allowed and c.target in allowed
        ]
        # A component of an undirected multigraph contains a cycle iff it
        # has at least as many edges as vertices. Union-find over the
        # induced edges detects exactly that.
        parent = {name: name for name in allowed}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for connection in edges:
            a, b = find(connection.source), find(connection.target)
            if a == b:
                return True  # this edge closes a circuit
            parent[a] = b
        return False

    # -- installation -----------------------------------------------------------------

    def install(self, engine: Engine, with_indexes: bool = True) -> None:
        """Create every relation in ``engine`` plus connection indexes.

        Each connection endpoint gets a secondary index on its
        connecting attributes, since update propagation looks tuples up
        by those attributes constantly — unless they are exactly the
        relation's key, which the engine already indexes.
        """
        for schema in self._relations.values():
            engine.create_relation(schema)
        if with_indexes:
            for connection in self._connections.values():
                engine.create_index(connection.source, connection.source_attributes)
                engine.create_index(connection.target, connection.target_attributes)

    # -- summaries ----------------------------------------------------------------------

    def describe(self) -> str:
        """Readable multi-line description (used by the Figure 1 bench)."""
        lines = [f"Structural schema {self.name!r}:"]
        lines.append(f"  relations ({len(self._relations)}):")
        for name, schema in self._relations.items():
            key = ",".join(schema.key)
            nonkey = ",".join(schema.nonkey_names)
            lines.append(f"    {name}  key=({key})  nonkey=({nonkey})")
        lines.append(f"  connections ({len(self._connections)}):")
        for connection in self._connections.values():
            lines.append(f"    [{connection.name}] {connection.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StructuralSchema({self.name!r}, {len(self._relations)} relations, "
            f"{len(self._connections)} connections)"
        )
