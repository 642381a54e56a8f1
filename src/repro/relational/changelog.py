"""Change log: rollback records and subscribers.

Both engines record every mutation of the open transaction here; the
log owns their savepoint marks. A rollback drops the innermost
transaction's records and hands them back (the memory engine undoes
them). The outermost commit, or a write outside any transaction, hands
its records in apply order to each subscriber's ``absorb(records)`` and
forgets them. Nothing else reads them: the images a journal or audit
log stores come from the translation's own record
(``TranslationContext.mutations``).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["ChangeRecord", "ChangeLog"]

Values = Optional[Tuple[Any, ...]]


class ChangeRecord(NamedTuple):
    """One applied mutation, with enough state to undo it."""

    kind: str
    relation: str
    key: Tuple[Any, ...]
    new_values: Values = None
    old_values: Values = None


class ChangeLog:
    """The open transaction's records, its savepoint marks, op counters."""

    __slots__ = ("records", "counters", "_marks", "_subscribers", "_lock")

    def __init__(self) -> None:
        self.records: List[ChangeRecord] = []
        self.counters: Dict[str, int] = {"insert": 0, "delete": 0, "replace": 0}
        self._marks: List[int] = []
        # Swapped whole under the lock; a commit iterates over a snapshot.
        self._subscribers: Tuple[Any, ...] = ()
        self._lock = threading.Lock()

    def subscribe(self, subscriber: Any) -> None:
        """Hand every committed record list to ``subscriber.absorb``."""
        with self._lock:
            if subscriber not in self._subscribers:
                self._subscribers += (subscriber,)

    def unsubscribe(self, subscriber: Any) -> None:
        with self._lock:
            self._subscribers = tuple(s for s in self._subscribers if s is not subscriber)

    def record(self, kind: str, relation: str, key: Tuple[Any, ...],
               new_values: Values = None, old_values: Values = None) -> None:
        """Append one mutation; outside a transaction, publish it at once."""
        self.records.append(ChangeRecord(kind, relation, key, new_values, old_values))
        self.counters[kind] += 1
        if not self._marks:
            self._publish()

    @property
    def depth(self) -> int:
        """How many transactions are open, nested ones included."""
        return len(self._marks)

    def begin(self) -> None:
        self._marks.append(len(self.records))

    def commit(self) -> None:
        """Close the innermost transaction; the outermost publishes."""
        self._marks.pop()
        if not self._marks:
            self._publish()

    def rollback(self) -> List[ChangeRecord]:
        """Close the innermost transaction; drop and return its records."""
        mark = self._marks.pop()
        dropped = self.records[mark:]
        del self.records[mark:]
        for record in dropped:
            self.counters[record.kind] -= 1
        return dropped

    def _publish(self) -> None:
        records = self.records
        if records:
            self.records = []
            for subscriber in self._subscribers:
                subscriber.absorb(records)

    def __len__(self) -> int:
        return len(self.records)
