"""Write-buffering engine overlay powering batched update translation.

The translation algorithms (VO-CI, VO-CD, replacement, the partial
operations) apply their mutations eagerly through the engine so that
later steps — dependency checks, global-integrity maintenance — observe
the effects of earlier ones. Running them once per instance therefore
costs one engine round-trip per read *and* per write.

:class:`BufferedEngine` lets the very same algorithms run unchanged over
a whole batch while touching the real engine almost never:

* writes land in one pending map per relation, ``key -> row``, where a
  None row means the key was deleted here;
* reads consult the pending map first and fall back to the base engine,
  memoizing every base read — safe because the base is never mutated
  while a batch is being translated.

After translation, the requests' plans are concatenated, in request
order, and flushed to the real engine through its batch primitives. Any
failure during translation simply discards the overlay: the base engine
was never touched, so there is nothing to roll back.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

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
        # relation -> {key: row, or None for a key deleted here}
        self._pending: Dict[
            str, Dict[Tuple[Any, ...], Optional[Tuple[Any, ...]]]
        ] = {}
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
        if self.get(name, key) is None:
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
        if new_key != key:
            self._drop(name, key)
        self._put(name, row, new_key)

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
        pending = self._pending.get(name)
        if pending is not None and key in pending:
            return pending[key]
        return self._base_get(name, key)

    def scan(self, name: str) -> Iterator[Tuple[Any, ...]]:
        schema = self.schema(name)
        pending = self._pending.get(name, {})
        for row in self.base.scan(name):
            if schema.key_of(row) not in pending:
                yield row
        for row in pending.values():
            if row is not None:
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
        pending = self._pending.get(name)
        if not pending:
            # Every caller only reads an answer, so the memoized list is
            # handed out as is.
            return base_rows
        schema = self.schema(name)
        key_of = schema.key_of
        result = [row for row in base_rows if key_of(row) not in pending]
        # The base answers in key order; buffered rows joining it put
        # the answer back into key order.
        base_count = len(result)
        entry_of = tuple_getter(schema.positions(names))
        for row in pending.values():
            if row is not None and entry_of(row) == entry:
                result.append(row)
        if len(result) > base_count:
            result.sort(key=key_of)
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
        pending = self._pending.setdefault(name, {})
        # A row put (back) goes last, so scan() yields buffered rows in
        # the order they were written.
        pending.pop(key, None)
        pending[key] = row

    def _drop(self, name: str, key: Tuple[Any, ...]) -> None:
        self._pending.setdefault(name, {})[key] = None

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
