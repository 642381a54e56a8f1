"""Observability: tracing and metrics.

Keller's framework treats the chosen translation strategy as a
first-class artifact; this package makes the *executions* of that
strategy first-class too. One :class:`Observability` hub bundles

* a :class:`~repro.obs.trace.Tracer` (hierarchical spans:
  ``translate > validate > propagate > verify > commit``) and
* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms for every layer),

and the library's layers consult the *active* hub through the
module-level accessors :func:`tracer` / :func:`metrics`. By default the
hub is disabled: the accessors hand out shared no-op objects, so
instrumented code paths cost one function call and nothing else.
:func:`configure` swaps in a live hub; :func:`disable` restores the
no-op one; :func:`use` scopes a hub to a ``with`` block (tests,
benchmarks, property-based equivalence checks).

>>> import repro.obs as obs
>>> hub = obs.configure()
>>> # ... run translated updates ...
>>> print(hub.tracer.render())          # doctest: +SKIP
>>> print(hub.metrics.render_text())    # doctest: +SKIP
>>> obs.disable()
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.context import (
    TraceContext,
    activate,
    attach,
    current_context,
    current_trace_id,
    format_traceparent,
    new_request_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NOOP_TRACER, Span, Tracer

__all__ = [
    "configure",
    "disable",
    "use",
    "active",
    "tracer",
    "metrics",
    "anomaly",
    "TraceContext",
    "activate",
    "attach",
    "current_context",
    "current_trace_id",
    "format_traceparent",
    "new_request_id",
    "new_trace_id",
    "parse_traceparent",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "AuditLog",
    "MemoryAuditLog",
    "FileAuditLog",
    "LineageIndex",
    "LineageLink",
    "ReplayReport",
    "as_of",
    "replay",
    "COMMITTED",
    "ROLLED_BACK",
    "DEGRADED_REJECTED",
    "CRASHED",
]

# The audit subsystem sits *above* the relational layer (it reuses the
# journal's plan/image serialization), while this package sits *below*
# it (the engines report metrics here). Importing it eagerly would close
# that loop, so the audit names resolve lazily on first attribute access
# (PEP 562) — `repro.obs.MemoryAuditLog` works, but importing
# `repro.obs` alone never touches the relational layer.
_LAZY_EXPORTS = {
    "AuditLog": "repro.obs.audit",
    "MemoryAuditLog": "repro.obs.audit",
    "FileAuditLog": "repro.obs.audit",
    "COMMITTED": "repro.obs.audit",
    "ROLLED_BACK": "repro.obs.audit",
    "DEGRADED_REJECTED": "repro.obs.audit",
    "CRASHED": "repro.obs.audit",
    "LineageIndex": "repro.obs.lineage",
    "LineageLink": "repro.obs.lineage",
    "ReplayReport": "repro.obs.history",
    "as_of": "repro.obs.history",
    "replay": "repro.obs.history",
    "TraceAssembler": "repro.obs.cluster",
    "FlightRecorder": "repro.obs.cluster",
    "SloTracker": "repro.obs.cluster",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


class Observability:
    """One tracer + one metrics registry, as a unit.

    The registry is the deployment's only one: every shard and replica
    records into it, its series told apart by ``shard=`` / ``replica=``
    labels. A live hub may also carry a
    :class:`~repro.obs.cluster.FlightRecorder` that :func:`anomaly`
    triggers dump to.
    """

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.flight = None  # Optional[FlightRecorder], set via install

    @classmethod
    def disabled(cls) -> "Observability":
        """The no-op hub: shared disabled tracer, null registry."""
        return cls(NOOP_TRACER, NULL_REGISTRY)

    @classmethod
    def enabled(cls) -> "Observability":
        return cls(Tracer(), MetricsRegistry())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Observability(enabled={self.tracer.enabled})"


_DISABLED = Observability.disabled()
_active = _DISABLED


def active() -> Observability:
    """The hub instrumented code currently reports to."""
    return _active


def tracer() -> Tracer:
    return _active.tracer


def metrics() -> MetricsRegistry:
    return _active.metrics


def anomaly(kind: str, **detail) -> None:
    """Report a cluster anomaly: count it and trip the flight recorder.

    Call sites are the moments worth a post-mortem — failover, breaker
    open, quorum revert, torn two-phase recovery, SLO fast burn. On a
    disabled hub this is a no-op counter touch; when a
    :class:`~repro.obs.cluster.FlightRecorder` is installed on the
    active hub, it dumps a bundle (rate-limited per kind).
    """
    hub = _active
    hub.metrics.counter("anomalies_total", kind=kind).inc()
    recorder = hub.flight
    if recorder is not None:
        recorder.trigger(kind, detail)


def configure() -> Observability:
    """Install (and return) a fresh live hub."""
    global _active
    _active = Observability.enabled()
    return _active


def disable() -> None:
    """Restore the shared no-op hub."""
    global _active
    _active = _DISABLED


@contextlib.contextmanager
def use() -> Iterator[Observability]:
    """Scope a fresh enabled hub to a ``with`` block, restoring the
    previous one after.

    >>> import repro.obs as obs
    >>> with obs.use() as hub:
    ...     pass  # instrumented code reports to `hub` here
    """
    global _active
    previous = _active
    _active = Observability.enabled()
    try:
        yield _active
    finally:
        _active = previous
