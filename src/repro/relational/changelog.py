"""Change log: an audit trail of applied database operations.

The memory engine records every applied mutation here. The log serves
four purposes:

* **undo** — transactions roll back by replaying inverse entries,
* **audit** — tests assert on exactly which operations a translation
  produced and applied,
* **metrics** — the benchmark harness counts operations per kind to
  report translation cost independently of wall-clock noise,
* **change feed** — subscribers (the materialized-view maintainer) read
  the records past their own mark and are notified of truncations, so
  caches can follow the base tables incrementally and roll back with
  aborted transactions.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ChangeRecord", "ChangeLog"]


class ChangeRecord:
    """One applied mutation, with enough state to undo it."""

    __slots__ = ("kind", "relation", "key", "new_values", "old_values")

    def __init__(
        self,
        kind: str,
        relation: str,
        key: Tuple[Any, ...],
        new_values: Optional[Tuple[Any, ...]] = None,
        old_values: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        self.kind = kind
        self.relation = relation
        self.key = key
        self.new_values = new_values
        self.old_values = old_values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChangeRecord({self.kind}, {self.relation}, key={self.key!r})"
        )


class ChangeLog:
    """Append-only log of :class:`ChangeRecord` with per-kind counters.

    Subscribers registered via :meth:`subscribe` may define
    ``on_truncate(mark)``, called after the log is cut back to ``mark``
    (i.e. a rollback). It is a notification on the mutation path, so it
    must be cheap and must not mutate the engine. Appends notify no
    one: a subscriber reads :meth:`since` its own mark when it needs to.
    """

    __slots__ = ("records", "counters", "_subscribers", "_subscriber_lock")

    def __init__(self) -> None:
        self.records: List[ChangeRecord] = []
        self.counters: Dict[str, int] = {"insert": 0, "delete": 0, "replace": 0}
        self._subscribers: List[Any] = []
        # Guards the subscriber list only. Appends/truncations themselves
        # are serialized by whoever mutates the engine; subscriptions may
        # legitimately race with them (e.g. a reader thread materializing
        # while a writer commits), so dispatch iterates over a snapshot.
        self._subscriber_lock = threading.Lock()

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, subscriber: Any) -> None:
        """Register a listener for truncations."""
        with self._subscriber_lock:
            if subscriber not in self._subscribers:
                self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Any) -> None:
        with self._subscriber_lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def _snapshot_subscribers(self) -> Tuple[Any, ...]:
        with self._subscriber_lock:
            return tuple(self._subscribers)

    # -- recording ----------------------------------------------------------

    def record_insert(
        self, relation: str, key: Tuple[Any, ...], values: Tuple[Any, ...]
    ) -> None:
        self.records.append(
            ChangeRecord("insert", relation, key, new_values=values)
        )
        self.counters["insert"] += 1

    def record_delete(
        self, relation: str, key: Tuple[Any, ...], old_values: Tuple[Any, ...]
    ) -> None:
        self.records.append(
            ChangeRecord("delete", relation, key, old_values=old_values)
        )
        self.counters["delete"] += 1

    def record_replace(
        self,
        relation: str,
        key: Tuple[Any, ...],
        old_values: Tuple[Any, ...],
        new_values: Tuple[Any, ...],
    ) -> None:
        self.records.append(ChangeRecord(
            "replace", relation, key, new_values=new_values, old_values=old_values
        ))
        self.counters["replace"] += 1

    def mark(self) -> int:
        """A position marker for later truncation or undo."""
        return len(self.records)

    def since(self, mark: int) -> List[ChangeRecord]:
        return self.records[mark:]

    def truncate(self, mark: int) -> None:
        dropped = self.records[mark:]
        for record in dropped:
            self.counters[record.kind] -= 1
        del self.records[mark:]
        if dropped:
            for subscriber in self._snapshot_subscribers():
                on_truncate = getattr(subscriber, "on_truncate", None)
                if on_truncate is not None:
                    on_truncate(mark)

    def __len__(self) -> int:
        return len(self.records)
