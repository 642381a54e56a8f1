"""Trace-context propagation across threads, tasks, and shipping.

A distributed write crosses three execution domains: the asyncio event
loop that parsed the HTTP request, the executor thread folding a
micro-batch, and the coordinator thread driving a cross-shard two-phase
commit (each replica applies inside the ship that delivered it, on
that thread; a record applied later, by catch-up or a stale read, is
re-joined from the trace id it carries). A :class:`TraceContext` is the correlation token that survives all of
those hops: an immutable ``(trace_id, span_id, baggage)`` triple
carried in a :mod:`contextvars` variable inside one domain and carried
*explicitly* (as a plain string on every
:class:`~repro.relational.journal.UpdateRecord` — journal intent, audit
record, shipped record) across domain boundaries that ``contextvars``
cannot cross.

Root spans opened while a context is active stamp its ``trace_id``
(see :mod:`repro.obs.trace`), which is what lets the
:class:`~repro.obs.cluster.TraceAssembler` stitch the fragments back
into one causal timeline.

The wire format follows W3C Trace Context (``traceparent:
00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>``) so external
callers can join traces, plus the pragmatic ``X-Request-Id`` header
which lands in :attr:`TraceContext.baggage` under ``"request_id"``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional

__all__ = [
    "TraceContext",
    "current_context",
    "current_trace_id",
    "attach",
    "activate",
    "new_trace_id",
    "new_span_id",
    "new_request_id",
    "parse_traceparent",
    "format_traceparent",
]

_HEX = "0123456789abcdef"

# Process-unique id generation: a random-ish per-process prefix (pid +
# startup entropy) plus a cheap monotonic counter. uuid4 costs ~1.5us
# per call; this is ~100ns and still unique across the processes that
# can ever share a trace file. ``next()`` on an ``itertools.count`` is
# a single C call — atomic under the GIL — so no lock is needed, and
# the pid prefixes are frozen at import (re-derived on fork via
# ``os.register_at_fork`` where available).
_SEED = int.from_bytes(os.urandom(6), "big")
_counter = itertools.count(1)
_TRACE_PREFIX = f"{_SEED:012x}{os.getpid() & 0xFFFF:04x}"
_SPAN_PREFIX = f"{os.getpid() & 0xFFFF:04x}"


def _reseed_after_fork() -> None:  # pragma: no cover - fork-only
    global _SEED, _counter, _TRACE_PREFIX, _SPAN_PREFIX
    _SEED = int.from_bytes(os.urandom(6), "big")
    _counter = itertools.count(1)
    _TRACE_PREFIX = f"{_SEED:012x}{os.getpid() & 0xFFFF:04x}"
    _SPAN_PREFIX = f"{os.getpid() & 0xFFFF:04x}"


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reseed_after_fork)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (W3C trace-id width)."""
    return _TRACE_PREFIX + format(next(_counter) & 0xFFFFFFFFFFFFFFFF, "016x")


def new_span_id() -> str:
    """A fresh 16-hex-char span id (W3C parent-id width)."""
    return _SPAN_PREFIX + format(next(_counter) & 0xFFFFFFFFFFFF, "012x")


def new_request_id() -> str:
    """A request id for responses when the client did not send one."""
    return f"req-{new_span_id()}"


class TraceContext:
    """The immutable correlation token for one logical request.

    ``trace_id``
        Shared by every span fragment of the request, cluster-wide.
    ``span_id``
        The id of the span that *created* this context — fragments
        started under it record it as their causal parent.
    ``baggage``
        Small string map that rides along (``request_id`` lives here).
    """

    __slots__ = ("trace_id", "span_id", "baggage")

    def __init__(
        self,
        trace_id: str,
        span_id: str = "",
        baggage: Optional[Dict[str, str]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.baggage: Dict[str, str] = dict(baggage) if baggage else {}

    @classmethod
    def new(cls, request_id: str) -> "TraceContext":
        return cls(new_trace_id(), new_span_id(), {"request_id": request_id})

    def child(self) -> "TraceContext":
        """The same trace continued under a new parent span id."""
        return TraceContext(self.trace_id, new_span_id(), self.baggage)

    @property
    def request_id(self) -> Optional[str]:
        return self.baggage.get("request_id")

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.span_id:
            out["span_id"] = self.span_id
        if self.baggage:
            out["baggage"] = dict(self.baggage)
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        return cls(
            payload["trace_id"],
            payload.get("span_id", ""),
            payload.get("baggage") or {},
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.baggage == other.baggage
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, baggage={self.baggage!r})"
        )


#: The ambient context of the current thread/task. ``contextvars``
#: gives asyncio tasks an isolated copy and fresh threads an empty one;
#: cross-thread handoff is explicit via :func:`attach`.
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The ambient :class:`TraceContext`, or ``None`` outside a trace."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


@contextlib.contextmanager
def attach(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` ambient for the block; ``attach(None)`` is a no-op.

    This is the cross-thread handoff primitive: capture
    ``current_context()`` on the submitting side, then ``with
    attach(ctx):`` around the work on the executing side.
    """
    if ctx is None:
        yield None
        return
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def activate(
    request_id: Optional[str] = None, **baggage: str
) -> Iterator[TraceContext]:
    """Start a trace for the block and return its context.

    >>> from repro.obs.context import activate
    >>> with activate(request_id="req-1") as ctx:
    ...     pass  # spans opened here carry ctx.trace_id
    """
    bag = dict(baggage)
    if request_id:
        bag["request_id"] = request_id
    ctx = TraceContext(new_trace_id(), new_span_id(), bag)
    with attach(ctx):
        yield ctx


# -- W3C traceparent ----------------------------------------------------------


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """``00-<trace>-<span>-<flags>`` → context, or None if malformed.

    Per the spec, an all-zero trace or span id is invalid; version
    ``ff`` is invalid; unknown versions parse leniently as long as the
    known fields are well-formed.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id = parts[0], parts[1], parts[2]
    if len(version) != 2 or version == "ff":
        return None
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    if any(ch not in _HEX for ch in version + trace_id + span_id):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id, span_id)


def format_traceparent(ctx: TraceContext) -> str:
    """The context as a ``traceparent`` header value (sampled flag set)."""
    trace_id = (ctx.trace_id or new_trace_id()).ljust(32, "0")[:32]
    span_id = (ctx.span_id or new_span_id()).ljust(16, "0")[:16]
    return f"00-{trace_id}-{span_id}-01"
