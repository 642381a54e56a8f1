"""Spans recorded from outside the program, and the self-time rule.

The traced pass builds the same stacks as the untraced one but hands the
program timing proxies at its layer boundaries: a delegating ``Engine``,
``PlanJournal`` and ``AuditLog`` (constructor arguments the program
already accepts) and instance-level wrappers on public methods of the
facade objects the benchmark itself built. Nothing under ``src/`` is
edited or monkey-patched at module level.

A span carries name, start, end, parent and a request id. Parents come
from a per-thread stack; a span opened on a thread with an empty stack
(an executor thread serving an HTTP request) is attached by request id
to that request's client span when the pass is analysed. A layer's self
time is its span's duration minus the part of that interval its child
spans cover, so overlapping children are never subtracted twice.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.audit import AuditLog
from repro.relational.engine import Engine
from repro.relational.journal import PlanJournal

__all__ = [
    "Span",
    "Recorder",
    "TimedEngine",
    "TimedJournal",
    "TimedAuditLog",
    "FsyncCounter",
    "covered",
    "self_times",
    "layer_of",
]

Interval = Tuple[float, float]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rids", "tags")

    def __init__(self, sid, name, start, parent, rids, tags):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rids = rids
        self.tags = tags

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rids": list(self.rids),
        }
        if self.tags:
            out["tags"] = self.tags
        return out


class Recorder:
    """Collects spans in memory; written out when the pass ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: The request the (single-threaded) driver is executing now.
        self.current_rid: Optional[int] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self,
        name: str,
        rids: Optional[Sequence[int]] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rids is None:
            if parent is not None:
                rids = parent.rids
            elif self.current_rid is not None:
                rids = (self.current_rid,)
            else:
                rids = ()
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                0.0,
                parent.sid if parent is not None else None,
                tuple(rids),
                tags,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = span.end = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        rids: Sequence[int],
        tags: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a finished root span without touching any thread's
        stack (client requests of several connections share one thread)."""
        with self._lock:
            span = Span(len(self.spans), name, start, None, tuple(rids), tags)
            self.spans.append(span)
        span.end = end
        return span

    def top(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(
        self,
        obj: Any,
        method: str,
        name: str,
        rids_of: Optional[Callable[..., Sequence[int]]] = None,
        tags_of: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``obj.method`` on this one instance with a timed twin."""
        inner = getattr(obj, method)

        @functools.wraps(inner)
        def timed(*args: Any, **kwargs: Any) -> Any:
            span = self.open(
                name,
                rids_of(*args, **kwargs) if rids_of is not None else None,
                tags_of(*args, **kwargs) if tags_of is not None else None,
            )
            try:
                return inner(*args, **kwargs)
            finally:
                self.close(span)

        setattr(obj, method, timed)

    def span_cost_outside(self, samples: int = 2000) -> float:
        """Seconds one child span adds to its *parent's* self time: the
        part of open/close that runs outside the child's own interval.
        Measured on empty spans; ``self_times`` subtracts it per child."""
        kept = len(self.spans)
        parent = self.open("calibrate")
        for _ in range(samples):
            self.close(self.open("calibrate.child"))
        self.close(parent)
        inside = sum(span.duration for span in self.spans[kept + 1:])
        del self.spans[kept:]
        return max(0.0, (parent.duration - inside) / samples)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span.as_dict(), separators=(",", ":")))
                f.write("\n")


# -- the self-time rule -------------------------------------------------------


def covered(parent: Interval, children: Iterable[Interval]) -> float:
    """Length of ``parent`` covered by the union of ``children``.

    Children are clipped to the parent and merged, so two children that
    overlap (parallel replicas, a batch span shared by two requests)
    count their common part once.
    """
    lo, hi = parent
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(
    spans: Sequence[Span], child_cost: float = 0.0
) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    A span with no in-thread parent but a request id is a child of every
    root span sharing one of its request ids (the client span over HTTP).
    ``child_cost`` (see :meth:`Recorder.span_cost_outside`) is taken off
    once per in-thread child, so the recorder's own work is not booked as
    the parent layer's.
    """
    children: Dict[int, List[Interval]] = {}
    roots_by_rid: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is None and span.name.startswith("serve.request"):
            for rid in span.rids:
                roots_by_rid.setdefault(rid, []).append(span)
    for span in spans:
        interval = (span.start, span.end)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(interval)
        elif not span.name.startswith("serve.request"):
            for rid in span.rids:
                for root in roots_by_rid.get(rid, ()):
                    children.setdefault(root.sid, []).append(interval)
    in_thread: Dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            in_thread[span.parent] = in_thread.get(span.parent, 0) + 1
    return {
        span.sid: max(
            0.0,
            span.duration
            - covered((span.start, span.end), children.get(span.sid, ()))
            - child_cost * in_thread.get(span.sid, 0),
        )
        for span in spans
    }


def layer_of(name: str) -> str:
    """``relational.engine.read`` -> ``relational.engine`` (the module)."""
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return name


LAYERS = (
    "serve",
    "shard",
    "replicate",
    "core.updates",
    "core.instantiation",
    "core.query",
    "materialize",
    "relational.engine",
    "relational.journal",
    "obs.audit",
)


# -- proxies handed to the program ----------------------------------------------


def _rows(result: Any) -> int:
    if result is None or result is False:
        return 0
    if isinstance(result, (list, dict)):
        return len(result)
    return 1


def _timed(name: str, count_rows: bool = False):
    """Delegate to ``self._base`` inside a span; the decorated body is
    never run. ``count_rows`` tags the span with how many rows came back."""

    def decorate(method):
        attr = method.__name__

        @functools.wraps(method)
        def call(self, *args: Any, **kwargs: Any) -> Any:
            span = self._rec.open(name)
            try:
                result = getattr(self._base, attr)(*args, **kwargs)
                if count_rows:
                    span.tags = {"rows": _rows(result)}
                return result
            finally:
                self._rec.close(span)

        return call

    return decorate


_timed_read = _timed("relational.engine.read", count_rows=True)


class TimedEngine(Engine):
    """Delegating engine that spans every call (the
    ``FaultInjectingEngine`` pattern): reads, writes and transaction
    control are separate span names so commit cost is visible."""

    def __init__(self, base: Engine, recorder: Recorder) -> None:
        self._base = base
        self._rec = recorder

    # catalog (set-up only; not spanned)
    def create_relation(self, schema):
        return self._base.create_relation(schema)

    def drop_relation(self, name):
        return self._base.drop_relation(name)

    def relation_names(self):
        return self._base.relation_names()

    def schema(self, name):
        return self._base.schema(name)

    def has_relation(self, name):
        return self._base.has_relation(name)

    def create_index(self, name, attribute_names):
        return self._base.create_index(name, attribute_names)

    @property
    def changelog(self):
        return self._base.changelog

    @property
    def in_transaction(self):
        return self._base.in_transaction

    @property
    def retry_policy(self):
        return self._base.retry_policy

    def close(self):
        return self._base.close()

    @_timed("relational.engine.write")
    def insert(self, name, values): ...

    @_timed("relational.engine.write")
    def delete(self, name, key): ...

    @_timed("relational.engine.write")
    def replace(self, name, key, values): ...

    @_timed("relational.engine.write")
    def clear(self, name): ...

    @_timed("relational.engine.write")
    def insert_many(self, name, rows): ...

    @_timed("relational.engine.apply_batch")
    def apply_batch(self, operations): ...

    @_timed_read
    def get(self, name, key): ...

    @_timed_read
    def contains(self, name, key): ...

    @_timed_read
    def get_many(self, name, keys): ...

    @_timed_read
    def find_by(self, name, attribute_names, entry): ...

    @_timed_read
    def select(self, name, predicate): ...

    @_timed_read
    def count(self, name): ...

    def scan(self, name):
        # Materialise inside the span: a generator would return at once.
        span = self._rec.open("relational.engine.read")
        try:
            rows = list(self._base.scan(name))
            span.tags = {"rows": len(rows)}
            return iter(rows)
        finally:
            self._rec.close(span)

    @_timed("relational.engine.txn")
    def begin(self): ...

    @_timed("relational.engine.commit")
    def commit(self): ...

    @_timed("relational.engine.txn")
    def rollback(self): ...

    @_timed("relational.engine.commit")
    def _finish_commit(self): ...

    def __getattr__(self, name: str) -> Any:
        # Backend extras (prepare_relation, operation_counters, ...).
        return getattr(self._base, name)


class TimedJournal(PlanJournal):
    """Delegating journal; keeps no state of its own."""

    def __init__(self, base: PlanJournal, recorder: Recorder) -> None:
        self._base = base
        self._rec = recorder

    @_timed("relational.journal.begin")
    def begin(self, plan, images, label=""): ...

    @_timed("relational.journal.begin")
    def begin_encoded(self, plan_records, image_records, label=""): ...

    @_timed("relational.journal.mark")
    def mark_committed(self, entry_id): ...

    @_timed("relational.journal.mark")
    def mark_aborted(self, entry_id): ...

    def entries(self):
        return self._base.entries()

    def pending(self):
        return self._base.pending()

    def entry(self, entry_id):
        return self._base.entry(entry_id)

    def __len__(self):
        return len(self._base)

    def close(self):
        return self._base.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


class TimedAuditLog(AuditLog):
    """Delegating audit log; keeps no state of its own."""

    def __init__(self, base: AuditLog, recorder: Recorder) -> None:
        self._base = base
        self._rec = recorder

    @_timed("obs.audit.append")
    def append(self, *args, **kwargs): ...

    @_timed("obs.audit.resolve")
    def resolve(self, asn, outcome, error=None): ...

    def reconcile(self, journal):
        return self._base.reconcile(journal)

    def __len__(self):
        return len(self._base)

    def close(self):
        return self._base.close()

    def __getattr__(self, name: str) -> Any:
        # records / committed / committed_since / head_asn / version ...
        return getattr(self._base, name)


class FsyncCounter:
    """Counts ``os.fsync`` calls while installed, by the layer whose span
    is open on the calling thread; always calls through."""

    def __init__(self, recorder: Recorder) -> None:
        self.by_layer: Dict[str, int] = {}
        self._rec = recorder
        self._real = None

    def counters(self) -> Dict[str, int]:
        """The counts by who asked: the journal, the audit log, anyone else."""
        journal = self.by_layer.get("relational.journal", 0)
        audit = self.by_layer.get("obs.audit", 0)
        return {
            "journal_fsyncs": journal,
            "audit_fsyncs": audit,
            "other_fsyncs": sum(self.by_layer.values()) - journal - audit,
        }

    def __enter__(self) -> "FsyncCounter":
        self._real = os.fsync

        def counting(fd):
            top = self._rec.top()
            layer = layer_of(top.name) if top is not None else "other"
            self.by_layer[layer] = self.by_layer.get(layer, 0) + 1
            return self._real(fd)

        os.fsync = counting
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real
