"""Database update operations as first-class values.

The paper's translation algorithms all have the same signature: "The
output is the set of database operations that implement that request."
This module defines those operations — :class:`Insert`, :class:`Delete`,
and :class:`Replace` — as immutable records, so a translator can build,
inspect and count a plan before a single row is touched.

:meth:`Engine.apply_batch <repro.relational.engine.Engine.apply_batch>`
executes a plan inside one transaction; if any operation fails, the
transaction is rolled back and the error re-raised, matching the paper's
all-or-nothing semantics ("the transaction cannot be completed and has
to be rolled back").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DatabaseOperation",
    "Insert",
    "Delete",
    "Replace",
    "UpdatePlan",
]


class DatabaseOperation:
    """Base class of the three relational update operations."""

    kind = "abstract"

    @property
    def relation(self) -> str:
        raise NotImplementedError

    def apply(self, engine: "Engine") -> None:  # noqa: F821 - doc reference
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class Insert(DatabaseOperation):
    """Insert a full value tuple into a relation."""

    kind = "insert"
    __slots__ = ("_relation", "values")

    def __init__(self, relation: str, values: Sequence[Any]) -> None:
        self._relation = relation
        self.values = tuple(values)

    @property
    def relation(self) -> str:
        return self._relation

    def apply(self, engine) -> None:
        engine.insert(self._relation, self.values)

    def describe(self) -> str:
        return f"INSERT {self._relation} {self.values!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Insert)
            and other._relation == self._relation
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash(("insert", self._relation, self.values))

    def __repr__(self) -> str:
        return f"Insert({self._relation!r}, {self.values!r})"


class Delete(DatabaseOperation):
    """Delete the row with a given primary key from a relation."""

    kind = "delete"
    __slots__ = ("_relation", "key")

    def __init__(self, relation: str, key: Sequence[Any]) -> None:
        self._relation = relation
        self.key = tuple(key)

    @property
    def relation(self) -> str:
        return self._relation

    def apply(self, engine) -> None:
        engine.delete(self._relation, self.key)

    def describe(self) -> str:
        return f"DELETE {self._relation} key={self.key!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Delete)
            and other._relation == self._relation
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash(("delete", self._relation, self.key))

    def __repr__(self) -> str:
        return f"Delete({self._relation!r}, {self.key!r})"


class Replace(DatabaseOperation):
    """Replace the row with a given primary key by new values.

    The new values may carry a different primary key (a key-changing
    replacement, the paper's CASE R-3).
    """

    kind = "replace"
    __slots__ = ("_relation", "key", "values")

    def __init__(self, relation: str, key: Sequence[Any], values: Sequence[Any]) -> None:
        self._relation = relation
        self.key = tuple(key)
        self.values = tuple(values)

    @property
    def relation(self) -> str:
        return self._relation

    def apply(self, engine) -> None:
        engine.replace(self._relation, self.key, self.values)

    def describe(self) -> str:
        return f"REPLACE {self._relation} key={self.key!r} -> {self.values!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Replace)
            and other._relation == self._relation
            and other.key == self.key
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash(("replace", self._relation, self.key, self.values))

    def __repr__(self) -> str:
        return f"Replace({self._relation!r}, {self.key!r}, {self.values!r})"


class UpdatePlan:
    """An ordered list of database operations produced by a translator.

    Order matters: deletions of owned tuples must precede the deletion of
    their owner only on engines that check constraints eagerly; we keep
    translator output order as produced so the plan doubles as an audit
    trail of *why* each operation was emitted (see ``reasons``).
    """

    __slots__ = ("operations", "reasons", "images")

    def __init__(self) -> None:
        self.operations: List[DatabaseOperation] = []
        self.reasons: List[str] = []
        # The net before/after cell images of the translation that built
        # this plan, while a log would record them (journal.fold_images).
        self.images: Optional[Dict[Any, Any]] = None

    def add(self, operation: DatabaseOperation, reason: str = "") -> None:
        self.operations.append(operation)
        self.reasons.append(reason)

    def extend(self, other: "UpdatePlan") -> None:
        self.operations.extend(other.operations)
        self.reasons.extend(other.reasons)

    def count(self, kind: str = None) -> int:
        if kind is None:
            return len(self.operations)
        return sum(1 for op in self.operations if op.kind == kind)

    def relations_touched(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for op in self.operations:
            if op.relation not in seen:
                seen.append(op.relation)
        return tuple(seen)

    def describe(self) -> str:
        """A readable multi-line rendering of the plan."""
        lines = []
        for op, reason in zip(self.operations, self.reasons):
            suffix = f"    -- {reason}" if reason else ""
            lines.append(op.describe() + suffix)
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdatePlan({len(self.operations)} operations)"
