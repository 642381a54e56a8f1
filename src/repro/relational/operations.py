"""Database update operations as first-class values.

The paper's translation algorithms all have the same signature: "The
output is the set of database operations that implement that request."
This module defines those operations — :class:`Insert`, :class:`Delete`,
and :class:`Replace` — as immutable records, so a translator can build,
inspect, count, and optimize a plan before a single row is touched.

:meth:`Engine.apply_batch <repro.relational.engine.Engine.apply_batch>`
executes a plan inside one transaction; if any operation fails, the
transaction is rolled back and the error re-raised, matching the paper's
all-or-nothing semantics ("the transaction cannot be completed and has
to be rolled back").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DatabaseOperation",
    "Insert",
    "Delete",
    "Replace",
    "UpdatePlan",
    "coalesce_plans",
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

    __slots__ = ("operations", "reasons")

    def __init__(self) -> None:
        self.operations: List[DatabaseOperation] = []
        self.reasons: List[str] = []

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


class _Entry:
    """Mutable per-key cell used while coalescing (one final operation)."""

    __slots__ = ("operation", "reason")

    def __init__(self, operation: DatabaseOperation, reason: str) -> None:
        self.operation = operation
        self.reason = reason


def coalesce_plans(
    plans: Iterable[UpdatePlan],
    schema_of: Callable[[str], "RelationSchema"],  # noqa: F821 - doc reference
) -> UpdatePlan:
    """Merge a sequence of plans into one equivalent, smaller plan.

    Operations touching the same (relation, primary key) are folded into
    a single net operation, in first-touch order:

    * ``Insert`` then ``Replace`` → one ``Insert`` with the final values;
    * ``Insert`` then ``Delete``  → nothing (the row never existed);
    * ``Replace`` then ``Replace`` → one ``Replace`` with the final values;
    * ``Replace`` then ``Delete``  → ``Delete`` of the original key;
    * ``Delete`` then ``Insert`` of the same key → one ``Replace``;
    * an exact duplicate ``Insert`` or ``Delete`` (as arises when
      independently translated plans share a skeleton tuple) collapses
      into one occurrence.

    ``schema_of`` supplies each relation's schema (pass
    ``engine.schema``); it is needed to extract primary keys from insert
    values. Key-changing replacements re-home their cell, so later
    operations on the new key keep folding into the same chain.
    """
    entries: List[_Entry] = []
    by_key = {}

    def key_of(relation: str, values: Sequence[Any]) -> Tuple[Any, ...]:
        return schema_of(relation).key_of(values)

    def current_cell(operation: DatabaseOperation) -> Tuple[str, Tuple[Any, ...]]:
        # Where the row lives *after* the operation: inserts and
        # replacements are addressed by the key of their new values (a
        # key-changing replace re-homes the chain); a deleted row stays
        # addressable under its old key so a re-insert folds into it.
        if operation.kind == "delete":
            return (operation.relation, operation.key)
        return (operation.relation, key_of(operation.relation, operation.values))

    for plan in plans:
        for operation, reason in zip(plan.operations, plan.reasons):
            relation = operation.relation
            if operation.kind == "insert":
                cell_key = (relation, key_of(relation, operation.values))
            else:
                cell_key = (relation, operation.key)
            entry: Optional[_Entry] = by_key.get(cell_key)
            if entry is None:
                entry = _Entry(operation, reason)
                entries.append(entry)
                by_key.pop(cell_key, None)
                by_key[current_cell(operation)] = entry
                continue
            folded = _fold(entry.operation, operation)
            if folded is entry.operation:
                continue  # exact duplicate collapsed
            entry.operation = folded
            entry.reason = reason or entry.reason
            del by_key[cell_key]
            if folded is not None:
                by_key[current_cell(folded)] = entry

    combined = UpdatePlan()
    for entry in entries:
        if entry.operation is not None:
            combined.add(entry.operation, entry.reason)
    return combined


def _fold(
    first: DatabaseOperation, second: DatabaseOperation
) -> Optional[DatabaseOperation]:
    """Net effect of two same-key operations; None means they cancel."""
    relation = first.relation
    if first.kind == "insert":
        if second.kind == "insert":
            if first.values == second.values:
                return first  # duplicate skeleton insert
            raise ValueError(
                f"cannot coalesce two inserts with key "
                f"{second.describe()!r} in {relation!r}"
            )
        if second.kind == "replace":
            return Insert(relation, second.values)
        return None  # insert then delete: the row never existed
    if first.kind == "replace":
        if second.kind == "replace":
            return Replace(relation, first.key, second.values)
        if second.kind == "delete":
            return Delete(relation, first.key)
        raise ValueError(
            f"cannot coalesce replace then insert on the same key in "
            f"{relation!r}"
        )
    # first is a delete
    if second.kind == "insert":
        return Replace(relation, first.key, second.values)
    if second.kind == "delete" and first.key == second.key:
        return first  # duplicate delete
    raise ValueError(
        f"cannot coalesce delete then {second.kind} on the same key in "
        f"{relation!r}"
    )
