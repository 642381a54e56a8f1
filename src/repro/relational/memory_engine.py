"""The from-scratch in-memory storage engine.

Rows live in :class:`~repro.relational.table.Table` objects; every
mutation is recorded in a :class:`~repro.relational.changelog.ChangeLog`
that doubles as the undo log for (nested) transactions: ``begin`` opens
a savepoint in the log, and ``rollback`` undoes, in reverse order, the
records the log drops for it. Undo bypasses the log on purpose, so a
subscriber (a materialized view) hears only what a commit published.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError, TransactionError, UnknownRelationError
from repro.relational.changelog import ChangeLog, ChangeRecord
from repro.relational.engine import Engine, ValuesLike
from repro.relational.schema import RelationSchema
from repro.relational.table import Table

__all__ = ["MemoryEngine"]


class MemoryEngine(Engine):
    """In-memory engine with undo-log transactions.

    Parameters
    ----------
    use_indexes:
        When False, ``create_index`` becomes a no-op, so every
        ``find_by`` is a scan — except one on exactly the key attributes,
        which the row map answers either way. The ablation benches flip
        this switch to measure how much connection-attribute indexes
        matter to update propagation.
    """

    def __init__(self, use_indexes: bool = True) -> None:
        self._tables: Dict[str, Table] = {}
        self._log = ChangeLog()
        self.use_indexes = use_indexes
        # Serializes batched mutations. Individual operations are not
        # locked — callers that share an engine across threads must
        # serialize at a higher level (see repro.serve).
        self._lock = threading.RLock()

    # -- catalog -----------------------------------------------------------

    def create_relation(self, schema: RelationSchema) -> None:
        if schema.name in self._tables:
            raise SchemaError(f"relation {schema.name!r} already exists")
        self._tables[schema.name] = Table(schema)

    def drop_relation(self, name: str) -> None:
        self._table(name)
        del self._tables[name]

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def schema(self, name: str) -> RelationSchema:
        return self._table(name).schema

    def has_relation(self, name: str) -> bool:
        return name in self._tables

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    # -- mutation ------------------------------------------------------------

    def insert(self, name: str, values: ValuesLike) -> Tuple[Any, ...]:
        table = self._table(name)
        row = self._coerce_values(name, values)
        key = table.insert(row)
        self._log.record("insert", name, key, row)
        return key

    def delete(self, name: str, key: Sequence[Any]) -> None:
        table = self._table(name)
        key = self._coerce_key(name, key)
        old = table.delete(key)
        self._log.record("delete", name, key, None, old)

    def replace(self, name: str, key: Sequence[Any], values: ValuesLike) -> None:
        table = self._table(name)
        key = self._coerce_key(name, key)
        row = self._coerce_values(name, values)
        old = table.replace(key, row)
        self._log.record("replace", name, key, row, old)

    def clear(self, name: str) -> None:
        table = self._table(name)
        for values in table.scan():
            self.delete(name, table.schema.key_of(values))

    # -- batched mutation --------------------------------------------------------

    def insert_many(
        self, name: str, rows: Iterable[ValuesLike]
    ) -> List[Tuple[Any, ...]]:
        """Single-lock fast path: coerce everything, then apply under
        one lock acquisition and one undo mark."""
        table = self._table(name)
        coerced = [self._coerce_values(name, values) for values in rows]
        keys = []
        with self._lock:
            self.begin()
            try:
                for row in coerced:
                    key = table.insert(row)
                    self._log.record("insert", name, key, row)
                    keys.append(key)
            except Exception:
                self.rollback()
                raise
            self._finish_commit()
        return keys

    def apply_batch(self, operations) -> int:
        with self._lock:
            return super().apply_batch(operations)

    # -- reads -----------------------------------------------------------------

    def get(self, name: str, key: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        return self._table(name).get(self._coerce_key(name, key))

    def contains(self, name: str, key: Sequence[Any]) -> bool:
        return self._table(name).contains_key(self._coerce_key(name, key))

    def scan(self, name: str) -> Iterator[Tuple[Any, ...]]:
        return self._table(name).scan()

    def find_by(
        self, name: str, attribute_names: Sequence[str], entry: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        return self._table(name).find_by(
            attribute_names, self._coerce_entry(name, attribute_names, entry)
        )

    def find_by_many(
        self, name: str, attribute_names: Sequence[str], entries: Iterable[Sequence[Any]]
    ) -> Dict[Tuple[Any, ...], List[Tuple[Any, ...]]]:
        """One pass: an index lookup per entry, or one scan of the table."""
        names = tuple(attribute_names)
        coerce = self._coerce_entry
        return self._table(name).find_by_many(
            names, [coerce(name, names, entry) for entry in entries]
        )

    def count(self, name: str) -> int:
        return len(self._table(name))

    # -- indexes -----------------------------------------------------------------

    def create_index(self, name: str, attribute_names: Sequence[str]) -> None:
        if self.use_indexes:
            self._table(name).create_index(attribute_names)

    # -- transactions --------------------------------------------------------------

    def begin(self) -> None:
        self._log.begin()

    def commit(self) -> None:
        if not self._log.depth:
            raise TransactionError("commit without matching begin")
        self._log.commit()

    def rollback(self) -> None:
        if not self._log.depth:
            raise TransactionError("rollback without matching begin")
        for record in reversed(self._log.rollback()):
            self._undo(record)

    def _undo(self, record: ChangeRecord) -> None:
        table = self._table(record.relation)
        if record.kind == "insert":
            table.delete(record.key)
        elif record.kind == "delete":
            table.insert(record.old_values)
        elif record.kind == "replace":
            new_key = table.schema.key_of(record.new_values)
            table.replace(new_key, record.old_values)
        else:  # pragma: no cover - defensive
            raise TransactionError(f"cannot undo record kind {record.kind!r}")

    @property
    def in_transaction(self) -> bool:
        return bool(self._log.depth)

    # -- introspection -----------------------------------------------------------

    @property
    def changelog(self) -> ChangeLog:
        """The open transaction's log and the commit feed (read-only use
        recommended)."""
        return self._log

    def operation_counters(self) -> Dict[str, int]:
        """Copy of the per-kind mutation counters."""
        return dict(self._log.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{n}={len(t)}" for n, t in self._tables.items())
        return f"MemoryEngine({sizes})"
