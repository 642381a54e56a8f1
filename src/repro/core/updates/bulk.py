"""Write-buffering engine overlay powering batched update translation.

The translation algorithms (VO-CI, VO-CD, replacement, the partial
operations) apply their mutations eagerly through the engine so that
later steps — dependency checks, global-integrity maintenance — observe
the effects of earlier ones. Running them once per instance therefore
costs one engine round-trip per read *and* per write.

:class:`BufferedEngine` lets the very same algorithms run unchanged over
a whole batch while touching the real engine almost never:

* writes land in an in-memory overlay (per-relation ``key -> row`` maps
  plus tombstone sets for deleted base rows);
* reads consult the overlay first and fall back to the base engine,
  memoizing every base read — safe because the base is never mutated
  while a batch is being translated.

After translation, the recorded per-instance plans are coalesced
(:func:`repro.relational.operations.coalesce_plans`) and flushed to the
real engine through its batch primitives. Any failure during translation
simply discards the overlay: the base engine was never touched, so there
is nothing to roll back.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import DuplicateKeyError, NoSuchRowError, TransactionError
from repro.relational.engine import (
    Engine,
    ValuesLike,
    _holds_datetime,
    _normalize_row_dates,
)
from repro.relational.schema import RelationSchema, tuple_getter

__all__ = ["BufferedEngine"]


class BufferedEngine(Engine):
    """An engine view that buffers writes and memoizes base reads.

    The base engine MUST NOT be mutated for the lifetime of this
    overlay; the memoized reads would go stale. The intended use is
    short-lived: translate one batch, flush, discard.
    """

    def __init__(self, base: Engine) -> None:
        self.base = base
        self._overlay: Dict[str, Dict[Tuple[Any, ...], Tuple[Any, ...]]] = {}
        self._tombstones: Dict[str, Set[Tuple[Any, ...]]] = {}
        self._get_cache: Dict[Tuple[str, Tuple[Any, ...]], Optional[Tuple[Any, ...]]] = {}
        self._find_cache: Dict[
            Tuple[str, Tuple[str, ...], Tuple[Any, ...]], List[Tuple[Any, ...]]
        ] = {}
        self._depth = 0

    # -- catalog (delegated) -----------------------------------------------

    def create_relation(self, schema: RelationSchema) -> None:
        raise TransactionError(
            "BufferedEngine is a read/write overlay; create relations on "
            "the base engine"
        )

    def drop_relation(self, name: str) -> None:
        raise TransactionError(
            "BufferedEngine is a read/write overlay; drop relations on "
            "the base engine"
        )

    def relation_names(self) -> Tuple[str, ...]:
        return self.base.relation_names()

    def schema(self, name: str) -> RelationSchema:
        return self.base.schema(name)

    def has_relation(self, name: str) -> bool:
        return self.base.has_relation(name)

    # -- mutation (overlay only) -------------------------------------------

    def insert(self, name: str, values: ValuesLike) -> Tuple[Any, ...]:
        row = self._coerce_values(name, values)
        key = self.schema(name).key_of(row)
        if self.get(name, key) is not None:
            raise DuplicateKeyError(name, key)
        self._put(name, row, key)
        return key

    def delete(self, name: str, key: Sequence[Any]) -> None:
        key = self._coerce_key(name, key)
        if key not in self._overlay.get(name, ()) and (
            key in self._tombstones.get(name, ())
            or self._base_get(name, key) is None
        ):
            raise NoSuchRowError(name, key)
        self._drop(name, key)

    def replace(self, name: str, key: Sequence[Any], values: ValuesLike) -> None:
        key = self._coerce_key(name, key)
        row = self._coerce_values(name, values)
        if self.get(name, key) is None:
            raise NoSuchRowError(name, key)
        new_key = self.schema(name).key_of(row)
        if new_key != key and self.get(name, new_key) is not None:
            raise DuplicateKeyError(name, new_key)
        overlay = self._overlay.setdefault(name, {})
        was_buffered = overlay.pop(key, None) is not None
        if new_key != key and (
            not was_buffered or self._base_get(name, key) is not None
        ):
            # The base row under the old key must stay hidden.
            self._tombstones.setdefault(name, set()).add(key)
        overlay[new_key] = row
        self._tombstones.get(name, set()).discard(new_key)

    def clear(self, name: str) -> None:
        for row in list(self.scan(name)):
            self.delete(name, self.schema(name).key_of(row))

    # -- reads (overlay, then memoized base) -------------------------------

    def _base_get(self, name: str, key: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        cache_key = (name, key)
        if cache_key in self._get_cache:
            return self._get_cache[cache_key]
        row = self.base.get(name, key)
        self._get_cache[cache_key] = row
        return row

    def get(self, name: str, key: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        key = self._coerce_key(name, key)
        overlay = self._overlay.get(name)
        if overlay is not None and key in overlay:
            return overlay[key]
        if key in self._tombstones.get(name, ()):
            return None
        return self._base_get(name, key)

    def scan(self, name: str) -> Iterator[Tuple[Any, ...]]:
        schema = self.schema(name)
        overlay = self._overlay.get(name, {})
        tombstones = self._tombstones.get(name, ())
        for row in self.base.scan(name):
            key = schema.key_of(row)
            if key in tombstones or key in overlay:
                continue
            yield row
        for row in overlay.values():
            yield row

    def find_by(
        self, name: str, attribute_names: Sequence[str], entry: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        names = tuple(attribute_names)
        entry = self._coerce_entry(name, names, entry)
        cache_key = (name, names, entry)
        base_rows = self._find_cache.get(cache_key)
        if base_rows is None:
            base_rows = self.base.find_by(name, names, entry)
            self._find_cache[cache_key] = base_rows
        schema = self.schema(name)
        overlay = self._overlay.get(name, {})
        tombstones = self._tombstones.get(name, ())
        result = []
        for row in base_rows:
            key = schema.key_of(row)
            if key in tombstones or key in overlay:
                continue
            result.append(row)
        if overlay:
            # The base answers in key order; buffered rows joining it
            # put the answer back into key order.
            base_count = len(result)
            entry_of = tuple_getter(schema.positions(names))
            for row in overlay.values():
                if entry_of(row) == entry:
                    result.append(row)
            if len(result) > base_count:
                result.sort(key=schema.key_of)
        return result

    # -- insert()/delete() without their checks -----------------------------
    #
    # For a write the caller has proved (the key was just probed absent /
    # the row just read present, the row is already validated, the key
    # contains no DATE attribute needing narrowing): TranslationContext
    # calls these when the compiled translator says so.

    def insert_validated(
        self, name: str, row: Tuple[Any, ...], key: Tuple[Any, ...]
    ) -> None:
        if _holds_datetime(row):
            row = _normalize_row_dates(self.schema(name), row)
        self._put(name, row, key)

    def delete_validated(self, name: str, key: Tuple[Any, ...]) -> None:
        self._drop(name, key)

    def _put(self, name: str, row: Tuple[Any, ...], key: Tuple[Any, ...]) -> None:
        self._overlay.setdefault(name, {})[key] = row
        tombstones = self._tombstones.get(name)
        if tombstones is not None:
            tombstones.discard(key)

    def _drop(self, name: str, key: Tuple[Any, ...]) -> None:
        overlay = self._overlay.setdefault(name, {})
        if key in overlay:
            del overlay[key]
            if self._base_get(name, key) is not None:
                self._tombstones.setdefault(name, set()).add(key)
            return
        self._tombstones.setdefault(name, set()).add(key)

    # -- indexes -----------------------------------------------------------

    def create_index(self, name: str, attribute_names: Sequence[str]) -> None:
        pass  # the base engine's indexes serve the memoized reads

    # -- transactions ------------------------------------------------------

    def begin(self) -> None:
        self._depth += 1

    def commit(self) -> None:
        if self._depth == 0:
            raise TransactionError("commit without matching begin")
        self._depth -= 1

    def rollback(self) -> None:
        raise TransactionError(
            "BufferedEngine cannot roll back: discard the overlay and "
            "re-translate the batch instead"
        )

    @property
    def in_transaction(self) -> bool:
        return self._depth > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BufferedEngine(base={self.base!r})"
