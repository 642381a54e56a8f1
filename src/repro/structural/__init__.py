"""The structural model: typed connections over a relational schema.

Implements Section 2 of the paper — ownership (``--*``), reference
(``-->``) and subset (``==>o``) connections with their key conditions
and integrity rules — as a directed graph (:class:`StructuralSchema`)
plus an integrity checker and path utilities.
"""

from repro.structural.connections import Connection, ConnectionKind, Traversal
from repro.structural.integrity import IntegrityChecker, Violation
from repro.structural.paths import ConnectionPath
from repro.structural.rendering import to_ascii, to_dot
from repro.structural.schema_graph import StructuralSchema
from repro.structural.validation import validate_connection

__all__ = [
    "Connection",
    "ConnectionKind",
    "Traversal",
    "StructuralSchema",
    "validate_connection",
    "IntegrityChecker",
    "Violation",
    "ConnectionPath",
    "to_ascii",
    "to_dot",
]
