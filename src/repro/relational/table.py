"""In-memory table storage with a primary-key index.

A :class:`Table` stores the rows of one relation keyed by primary key,
maintains any number of secondary :class:`~repro.relational.indexes.HashIndex`
objects, and exposes exactly the operation vocabulary the paper's
translation algorithms emit: **insert**, **delete**, and **replace**.
Rows are stored as given: ``MemoryEngine``, the only writer, checked
each against the schema at the engine boundary before it got here.

The row map is the primary-key index: ``find_by`` on exactly the key
attributes is a dictionary lookup, and ``create_index`` builds no
secondary index on them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.relational.indexes import HashIndex
from repro.relational.schema import RelationSchema, tuple_getter

__all__ = ["Table"]


class Table:
    """All rows of one relation, indexed by primary key."""

    __slots__ = ("schema", "_rows", "_indexes")

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._rows: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        self._indexes: Dict[Tuple[str, ...], HashIndex] = {}

    # -- index management ---------------------------------------------------

    def create_index(self, attribute_names: Sequence[str]) -> Optional[HashIndex]:
        """Create (or return an existing) secondary index; None for the
        key attributes, which the row map already indexes."""
        names = tuple(attribute_names)
        if names in self._indexes:
            return self._indexes[names]
        if names == self.schema.key:
            return None
        index = HashIndex(self.schema, names)
        for values in self._rows.values():
            index.add(values)
        self._indexes[names] = index
        return index

    # -- mutation -------------------------------------------------------------

    def insert(self, values: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Insert a value tuple; raise :class:`DuplicateKeyError` on clash."""
        key = self.schema.key_of(values)
        if key in self._rows:
            raise DuplicateKeyError(self.schema.name, key)
        self._rows[key] = values
        for index in self._indexes.values():
            index.add(values)
        return key

    def delete(self, key: Sequence[Any]) -> Tuple[Any, ...]:
        """Delete the row with primary key ``key``; return its values."""
        key = tuple(key)
        try:
            values = self._rows.pop(key)
        except KeyError:
            raise NoSuchRowError(self.schema.name, key) from None
        for index in self._indexes.values():
            index.remove(values)
        return values

    def replace(self, key: Sequence[Any], new_values: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Replace the row with key ``key`` by ``new_values``.

        The new values may change the primary key (the paper's CASE R-3);
        if the new key collides with a *different* existing row, the
        replacement raises :class:`DuplicateKeyError`.
        Returns the old values.
        """
        key = tuple(key)
        try:
            old_values = self._rows[key]
        except KeyError:
            raise NoSuchRowError(self.schema.name, key) from None
        new_key = self.schema.key_of(new_values)
        if new_key != key and new_key in self._rows:
            raise DuplicateKeyError(self.schema.name, new_key)
        del self._rows[key]
        self._rows[new_key] = new_values
        for index in self._indexes.values():
            index.replace(old_values, new_values)
        return old_values

    def clear(self) -> None:
        self._rows.clear()
        # Rebuild indexes empty (cheaper than per-row removal).
        self._indexes = {
            names: HashIndex(self.schema, names) for names in self._indexes
        }

    # -- reads ---------------------------------------------------------------

    def get(self, key: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """The value tuple with primary key ``key``, or ``None``."""
        return self._rows.get(tuple(key))

    def contains_key(self, key: Sequence[Any]) -> bool:
        return tuple(key) in self._rows

    __contains__ = contains_key

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over all value tuples (snapshot; safe to mutate during)."""
        return iter(list(self._rows.values()))

    def find_by(
        self, attribute_names: Sequence[str], entry: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        """All value tuples whose ``attribute_names`` equal ``entry``, in
        primary-key order: from the row map when the attributes are the
        key, through a secondary index on exactly these attributes, else
        :meth:`find_by_many`'s scan."""
        names = tuple(attribute_names)
        entry = tuple(entry)
        if names == self.schema.key:
            row = self._rows.get(entry)
            return [] if row is None else [row]
        index = self._indexes.get(names)
        if index is None:
            return self.find_by_many(names, (entry,))[entry]
        rows = self._rows
        return [rows[k] for k in index.lookup(entry)]

    def find_by_many(
        self, attribute_names: Sequence[str], entries: Iterable[Tuple[Any, ...]]
    ) -> Dict[Tuple[Any, ...], List[Tuple[Any, ...]]]:
        """``{entry: find_by(attribute_names, entry)}`` for every entry:
        one row-map or index lookup each, or one scan grouping the rows
        by entry."""
        names = tuple(attribute_names)
        rows = self._rows
        if names == self.schema.key:
            found = {}
            for entry in entries:
                row = rows.get(entry)
                found[entry] = [] if row is None else [row]
            return found
        index = self._indexes.get(names)
        if index is not None:
            return {e: [rows[k] for k in index.lookup(e)] for e in entries}
        found = {entry: [] for entry in entries}
        entry_of = tuple_getter(self.schema.positions(names))
        for values in rows.values():
            matched = found.get(entry_of(values))
            if matched is not None:
                matched.append(values)
        for matched in found.values():
            matched.sort(key=self.schema.key_of)
        return found

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name}, {len(self._rows)} rows)"
