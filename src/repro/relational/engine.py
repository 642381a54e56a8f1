"""Abstract storage engine interface.

Both backends — the from-scratch in-memory engine and the sqlite3
backend — implement this interface, so every layer above (structural
integrity, view-object instantiation, update translation) is backend
agnostic. The benchmark harness exploits this to run identical update
plans on both engines.
"""

from __future__ import annotations

import contextlib
import datetime
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import TransactionError
from repro.relational.domains import DATE
from repro.relational.expressions import Expression
from repro.relational.row import Row
from repro.relational.schema import RelationSchema

__all__ = ["Engine"]

ValuesLike = Union[Sequence[Any], Mapping[str, Any]]


class Engine:
    """Common interface of all storage backends.

    ``retry_policy`` (a :class:`~repro.relational.retry.RetryPolicy`, or
    None to disable) is consulted by the batch primitives: each
    individual operation inside :meth:`insert_many` / :meth:`apply_batch`
    is retried on transient failures, so a batch survives conditions
    like sqlite busy/locked without the caller seeing them.
    """

    #: Optional RetryPolicy absorbing transient faults in batch primitives.
    retry_policy = None

    # -- catalog -----------------------------------------------------------

    def create_relation(self, schema: RelationSchema) -> None:
        raise NotImplementedError

    def drop_relation(self, name: str) -> None:
        raise NotImplementedError

    def relation_names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def schema(self, name: str) -> RelationSchema:
        raise NotImplementedError

    def has_relation(self, name: str) -> bool:
        return name in self.relation_names()

    # -- mutation ----------------------------------------------------------

    def insert(self, name: str, values: ValuesLike) -> Tuple[Any, ...]:
        """Insert one row; return its primary key."""
        raise NotImplementedError

    def delete(self, name: str, key: Sequence[Any]) -> None:
        raise NotImplementedError

    def replace(self, name: str, key: Sequence[Any], values: ValuesLike) -> None:
        raise NotImplementedError

    def clear(self, name: str) -> None:
        """Remove all rows of a relation."""
        raise NotImplementedError

    # -- batched mutation --------------------------------------------------

    def insert_many(
        self, name: str, rows: Iterable[ValuesLike]
    ) -> List[Tuple[Any, ...]]:
        """Insert many rows atomically; return their primary keys.

        The default implementation loops over :meth:`insert` inside one
        transaction, so a failure anywhere leaves the relation
        untouched. Backends override this with genuinely batched
        implementations (``executemany`` on sqlite, a single lock
        acquisition in memory).
        """
        keys = []
        self.begin()
        try:
            for values in rows:
                keys.append(
                    self._retry(lambda values=values: self.insert(name, values))
                )
        except Exception:
            self.rollback()
            raise
        self._finish_commit()
        return keys

    def apply_batch(self, operations: Iterable["DatabaseOperation"]) -> int:  # noqa: F821
        """Apply a batch of database operations atomically.

        Returns the number of operations applied. The default loops and
        dispatches each operation; backends override it to group
        adjacent same-relation operations into batched statements.
        """
        count = 0
        self.begin()
        try:
            for operation in operations:
                self._retry(lambda op=operation: op.apply(self))
                count += 1
        except Exception:
            self.rollback()
            raise
        self._finish_commit()
        return count

    # -- reads -------------------------------------------------------------

    def get(self, name: str, key: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        raise NotImplementedError

    def contains(self, name: str, key: Sequence[Any]) -> bool:
        return self.get(name, key) is not None

    def get_many(
        self, name: str, keys: Iterable[Sequence[Any]]
    ) -> Dict[Tuple[Any, ...], Tuple[Any, ...]]:
        """Value tuples of the listed keys; absent keys are omitted.

        Keyed by each key as the engine normalises it (a ``datetime`` in
        a DATE attribute by its ``date``), which is the stored key on
        every backend. Every backend inherits this loop over :meth:`get`.
        """
        found = {}
        for key in keys:
            key = self._coerce_key(name, key)
            values = self.get(name, key)
            if values is not None:
                found[key] = values
        return found

    def scan(self, name: str) -> Iterator[Tuple[Any, ...]]:
        raise NotImplementedError

    def find_by(
        self, name: str, attribute_names: Sequence[str], entry: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        """All value tuples whose listed attributes equal ``entry``, in
        primary-key order on every backend: siblings in an instance come
        in the order of their keys, whatever the engine and its indexes."""
        raise NotImplementedError

    def find_by_many(
        self,
        name: str,
        attribute_names: Sequence[str],
        entries: Iterable[Sequence[Any]],
    ) -> Dict[Tuple[Any, ...], List[Tuple[Any, ...]]]:
        """``{entry: find_by(name, attribute_names, entry)}`` for every
        entry, null-holding ones included, each answer in key order.

        Keyed like :meth:`get_many`, by the entry as the engine
        normalises it. The default loops over :meth:`find_by`, so a
        delegating engine ticks, counts and merges per entry, and sqlite
        runs its cached ``find_by`` statement per entry; memory answers
        in one pass over the table or its index.
        """
        names = tuple(attribute_names)
        found = {}
        for entry in entries:
            entry = self._coerce_entry(name, names, entry)
            if entry not in found:
                found[entry] = self.find_by(name, names, entry)
        return found

    def select(self, name: str, predicate: Expression) -> List[Tuple[Any, ...]]:
        """All value tuples satisfying ``predicate``: bind it to the
        relation's tuple positions once, then filter the scan."""
        test = predicate.bind(self.schema(name))
        return [values for values in self.scan(name) if test(values)]

    def count(self, name: str) -> int:
        return sum(1 for _ in self.scan(name))

    def rows(self, name: str) -> Iterator[Row]:
        """Scan a relation yielding :class:`Row` objects."""
        schema = self.schema(name)
        for values in self.scan(name):
            yield Row(schema, values)

    def get_row(self, name: str, key: Sequence[Any]) -> Optional[Row]:
        values = self.get(name, key)
        if values is None:
            return None
        return Row(self.schema(name), values)

    # -- indexes -----------------------------------------------------------

    def create_index(self, name: str, attribute_names: Sequence[str]) -> None:
        """Create a secondary index (backends may treat this as a hint)."""
        raise NotImplementedError

    # -- change feed ---------------------------------------------------------

    @property
    def changelog(self):
        """The engine's :class:`~repro.relational.changelog.ChangeLog`
        (the open transaction's records; its outermost commit feeds the
        subscribers), or ``None`` for backends that keep none.
        Materialized views require one; both built-in backends have it."""
        return None

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        raise NotImplementedError

    def commit(self) -> None:
        raise NotImplementedError

    def rollback(self) -> None:
        raise NotImplementedError

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is currently open (backends override)."""
        return False

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Context manager: commit on success, roll back on error.

        If the commit itself fails, a rollback is attempted before the
        failure surfaces as :class:`~repro.errors.TransactionError`
        chaining the original — the engine is never left inside an open
        transaction.
        """
        self.begin()
        try:
            yield
        except Exception:
            self.rollback()
            raise
        self._finish_commit()

    def _retry(self, attempt):
        """Run one operation through the retry policy, if any."""
        policy = self.retry_policy
        if policy is None:
            return attempt()
        return policy.run(attempt)

    def _finish_commit(self) -> None:
        """Commit a transaction known to be open, recovering on failure.

        ``commit()`` can raise too — an injected fault, an I/O error on
        a file-backed database. Without this wrapper the engine would be
        left inside an open transaction with no rollback attempted;
        instead the failed commit is rolled back and surfaced as a
        :class:`~repro.errors.TransactionError` chaining the original.
        Transient commit failures are retried first, like any other
        operation.
        """
        try:
            self._retry(self.commit)
        except TransactionError:
            raise
        except Exception as exc:
            try:
                self.rollback()
            except Exception:
                pass  # the original failure is the one worth reporting
            raise TransactionError(
                "commit failed; the transaction was rolled back"
            ) from exc

    # -- helpers -------------------------------------------------------------

    def _coerce_values(self, name: str, values: ValuesLike) -> Tuple[Any, ...]:
        schema = self.schema(name)
        if type(values) is tuple or not isinstance(values, Mapping):
            row = schema.validate_row(values)
        else:
            row = schema.row_from_mapping(values)
        return _normalize_row_dates(schema, row)

    def _coerce_key(self, name: str, key: Sequence[Any]) -> Tuple[Any, ...]:
        """Normalize a key tuple at the engine boundary.

        ``datetime.datetime`` passes DATE domain checks (it subclasses
        ``date``) but compares unequal to the plain ``date`` the engine
        stores, so key lookups must narrow it the same way stored values
        are narrowed.
        """
        key = tuple(key)
        if not _holds_datetime(key):
            return key
        schema = self.schema(name)
        return tuple(
            value.date()
            if isinstance(value, datetime.datetime)
            and schema.attribute(attr).domain == DATE
            else value
            for attr, value in zip(schema.key, key)
        )

    def _coerce_entry(
        self, name: str, attribute_names: Sequence[str], entry: Sequence[Any]
    ) -> Tuple[Any, ...]:
        """Normalize a ``find_by`` entry like :meth:`_coerce_key`."""
        entry = tuple(entry)
        if not _holds_datetime(entry):
            return entry
        schema = self.schema(name)
        return tuple(
            value.date()
            if isinstance(value, datetime.datetime)
            and schema.attribute(attr).domain == DATE
            else value
            for attr, value in zip(attribute_names, entry)
        )


def _normalize_row_dates(
    schema: RelationSchema, row: Tuple[Any, ...]
) -> Tuple[Any, ...]:
    """Narrow ``datetime.datetime`` values to ``date`` for DATE attributes.

    A ``datetime`` slips through domain validation because it subclasses
    ``date``, but storing it verbatim breaks round-trips: sqlite would
    persist a time suffix that ``date.fromisoformat`` cannot decode, and
    the memory engine would hold a value that compares unequal to the
    ``date`` callers query with. Both engines therefore normalize here,
    at the value boundary.
    """
    if not _holds_datetime(row):
        return row
    return tuple(
        value.date()
        if isinstance(value, datetime.datetime) and attr.domain == DATE
        else value
        for attr, value in zip(schema.attributes, row)
    )


def _holds_datetime(values: Sequence[Any]) -> bool:
    """Whether any value is a ``datetime.datetime`` (a plain loop: this
    runs for every key, entry and row crossing the engine boundary)."""
    for value in values:
        if isinstance(value, datetime.datetime):
            return True
    return False
