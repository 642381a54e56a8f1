"""Secondary hash indexes over in-memory tables.

Update propagation in the structural model is driven by lookups of the
form "all tuples of R whose attributes X equal these values" (matching
tuples across a connection). A :class:`HashIndex` makes those lookups
O(1) instead of a scan; the integrity engine creates one per connection
endpoint unless indexes are disabled (the ablation benches measure the
difference). An endpoint that *is* the primary key gets none: the table's
row map already answers it. Entries and keys are extracted by getters
compiled when the index is built.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.relational.schema import RelationSchema, tuple_getter

__all__ = ["HashIndex"]


class HashIndex:
    """Hash index mapping attribute-value tuples to primary keys.

    The index stores primary keys, not rows, so it stays valid across
    nonkey replacements that do not touch the indexed attributes.
    """

    __slots__ = ("schema", "attribute_names", "_entry", "_buckets")

    def __init__(self, schema: RelationSchema, attribute_names: Iterable[str]) -> None:
        self.schema = schema
        self.attribute_names = tuple(attribute_names)
        self._entry = tuple_getter(schema.positions(self.attribute_names))
        self._buckets: Dict[Tuple[Any, ...], Set[Tuple[Any, ...]]] = {}

    def add(self, values: Tuple[Any, ...]) -> None:
        """Index a freshly inserted value tuple."""
        entry = self._entry(values)
        key = self.schema.key_of(values)
        self._buckets.setdefault(entry, set()).add(key)

    def remove(self, values: Tuple[Any, ...]) -> None:
        """Drop a deleted value tuple from the index."""
        entry = self._entry(values)
        key = self.schema.key_of(values)
        bucket = self._buckets.get(entry)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self._buckets[entry]

    def replace(self, old: Tuple[Any, ...], new: Tuple[Any, ...]) -> None:
        self.remove(old)
        self.add(new)

    def lookup(self, entry: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
        """Primary keys of all rows whose indexed attributes equal
        ``entry``, in key order."""
        return sorted(self._buckets.get(tuple(entry), ()))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashIndex({self.schema.name}.{'/'.join(self.attribute_names)}, "
            f"{len(self._buckets)} buckets)"
        )
