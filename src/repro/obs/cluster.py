"""The cluster-wide observability plane.

A sharded, replicated deployment runs a dozen stacks inside one
process and a single write crosses four of them. Their metrics already
meet in the hub's one registry, told apart by the ``shard=`` /
``replica=`` labels each serving facade stamps on its series; this
module reads across what :mod:`repro.obs.context` correlates:

* :func:`histogram_quantile` — Prometheus-style linear interpolation
  over the fixed buckets a histogram already keeps;
* :class:`SloTracker` — the server's two objectives (:data:`SLOS`: write
  latency, availability) with multi-window burn rates computed from
  counter/histogram deltas, surfaced on ``/health``;
* :class:`TraceAssembler` — stitches the tracer's ring-buffer root
  spans (HTTP task, micro-batch executor thread, 2PC coordinator with
  its ships and replica applies) into one causal timeline per trace id;
* :class:`FlightRecorder` — an always-on bounded recorder that dumps
  spans + metrics + audit tails to a timestamped JSONL bundle when
  :func:`repro.obs.anomaly` fires (failover, breaker open, quorum
  revert, torn recovery, SLO fast burn).

Everything here is read-side: nothing in this module sits on a write
hot path, so the <5%-enabled overhead bar is carried entirely by the
(cheap) context propagation in :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs as obs
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "SloTracker",
    "TraceAssembler",
    "FlightRecorder",
]


# ---------------------------------------------------------------------------
# Quantiles and SLOs
# ---------------------------------------------------------------------------


def histogram_quantile(histogram: Histogram, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a histogram from its bucket counts.

    Linear interpolation within the winning bucket, Prometheus style;
    observations in the ``+Inf`` bucket clamp to the largest finite
    bound. Returns ``None`` on an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    bounds = histogram.buckets
    bucket_map = histogram.bucket_counts()
    counts = [bucket_map.get(f"le={bound:g}", 0) for bound in bounds]
    counts.append(bucket_map.get("le=+Inf", 0))
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0.0
    for index, bound in enumerate(bounds):
        previous = cumulative
        cumulative += counts[index]
        if cumulative >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            if counts[index] == 0:
                return float(bound)
            fraction = (rank - previous) / counts[index]
            return lower + (bound - lower) * fraction
    # Landed in +Inf: the honest answer is "beyond the largest bound".
    return float(bounds[-1])


#: The server's objectives over families it already records:
#: ``(name, kind, family, objective)``. A ``latency`` objective counts an
#: observation at or under :data:`WRITE_THRESHOLD_MS` as good; an
#: ``availability`` one counts every increment whose ``status`` label
#: is not a 5xx as good.
SLOS = (
    ("write_latency", "latency", "serve_write_ms", 0.95),
    ("availability", "availability", "serve_http_requests_total", 0.999),
)
WRITE_THRESHOLD_MS = 250.0


def _folded(registry: MetricsRegistry, family: str) -> Optional[Histogram]:
    """A latency family folded across its label sets (every shard and
    replica observes into the same bounds), or None."""
    parts = registry.histograms(family)
    if not parts:
        return None
    folded = Histogram(family, buckets=parts[0].buckets)
    for part in parts:
        folded.merge(part)
    return folded


def _good_bad(
    registry: MetricsRegistry, kind: str, family: str
) -> Tuple[float, float]:
    """Cumulative (good, bad) event counts for one objective."""
    if kind == "latency":
        folded = _folded(registry, family)
        if folded is None:
            return 0.0, 0.0
        counts = folded.bucket_counts()
        good = sum(
            counts[f"le={bound:g}"]
            for bound in folded.buckets
            if bound <= WRITE_THRESHOLD_MS
        )
        return float(good), float(folded.count - good)
    good = bad = 0.0
    for counter in registry.counters(family):
        if dict(counter.labels).get("status", "").startswith("5"):
            bad += counter.value
        else:
            good += counter.value
    return good, bad


class SloTracker:
    """Multi-window burn rates of :data:`SLOS` over cumulative good/bad
    counts.

    Burn rate is the classic definition: the error rate observed over
    a window, divided by the error budget ``1 - objective``. A burn
    of 1.0 spends the budget exactly at the objective's pace; 14.4
    over an hour is Google's "page now" threshold, and
    :attr:`FAST_BURN_THRESHOLD` sits near it. Each :meth:`sample`
    appends cumulative counts to a bounded deque, so the tracker costs
    O(1) per health poll and nothing on the write path.
    """

    MIN_WINDOW_EVENTS = 10  # don't alert on the first unlucky request
    FAST_WINDOW = 60.0  # seconds
    SLOW_WINDOW = 3600.0
    FAST_BURN_THRESHOLD = 14.0

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._samples: Dict[str, deque] = {name: deque() for name, *_ in SLOS}
        self._burning: Dict[str, bool] = {name: False for name, *_ in SLOS}

    def _window_rates(
        self, samples: deque, now: float
    ) -> Dict[str, Optional[float]]:
        """Error rate over each window, or None with too little data."""
        out: Dict[str, Optional[float]] = {}
        for label, window in (
            ("fast", self.FAST_WINDOW),
            ("slow", self.SLOW_WINDOW),
        ):
            base = None
            for t, good, bad in samples:
                if t >= now - window:
                    base = (t, good, bad)
                    break
            if base is None or not samples:
                out[label] = None
                continue
            _t0, good0, bad0 = base
            _tn, goodn, badn = samples[-1]
            good_delta = goodn - good0
            bad_delta = badn - bad0
            total = good_delta + bad_delta
            if total < self.MIN_WINDOW_EVENTS:
                out[label] = None
            else:
                out[label] = bad_delta / total
        return out

    def sample(self) -> Dict[str, Any]:
        """Take one sample of the active hub and return the SLO report.

        Also exports an ``slo_attainment{slo=}`` gauge and fires the
        ``slo_fast_burn`` anomaly on the *transition* into fast burn
        (so a long incident produces one flight bundle, not one per
        health poll).
        """
        registry = obs.metrics()
        now = self.clock()
        report: Dict[str, Any] = {}
        fired: List[str] = []
        with self._lock:
            for name, kind, family, objective in SLOS:
                good, bad = _good_bad(registry, kind, family)
                samples = self._samples[name]
                samples.append((now, good, bad))
                while samples and samples[0][0] < now - self.SLOW_WINDOW:
                    samples.popleft()
                rates = self._window_rates(samples, now)
                budget = 1.0 - objective
                burn = {
                    label: (None if rate is None else rate / budget)
                    for label, rate in rates.items()
                }
                total = good + bad
                attainment = (good / total) if total else None
                fast_burning = (
                    burn["fast"] is not None
                    and burn["fast"] >= self.FAST_BURN_THRESHOLD
                )
                if fast_burning and not self._burning[name]:
                    fired.append(name)
                self._burning[name] = fast_burning
                entry: Dict[str, Any] = {
                    "kind": kind,
                    "objective": objective,
                    "attainment": attainment,
                    "good": good,
                    "bad": bad,
                    "burn": burn,
                    "fast_burn": fast_burning,
                }
                folded = _folded(registry, family) if kind == "latency" else None
                p95 = None if folded is None else histogram_quantile(folded, 0.95)
                if p95 is not None:
                    entry["p95_ms"] = round(p95, 3)
                    entry["threshold_ms"] = WRITE_THRESHOLD_MS
                report[name] = entry
                if attainment is not None:
                    registry.gauge("slo_attainment", slo=name).set(attainment)
        for name in fired:
            obs.anomaly(
                "slo_fast_burn",
                slo=name,
                burn=report[name]["burn"]["fast"],
                threshold=self.FAST_BURN_THRESHOLD,
            )
        return report


# ---------------------------------------------------------------------------
# Trace assembly
# ---------------------------------------------------------------------------


class AssembledTrace:
    """Every retained fragment of one trace, as a causal timeline.

    ``fragments`` are root spans sorted by start time —
    ``perf_counter`` is monotonic process-wide, so cross-thread starts
    order correctly. Each fragment's ``parent_id`` names the span (in
    an earlier fragment) that caused it.
    """

    __slots__ = ("trace_id", "fragments")

    def __init__(self, trace_id: str, fragments: Sequence[Span]) -> None:
        self.trace_id = trace_id
        self.fragments = sorted(fragments, key=lambda s: s.start)

    @property
    def request_id(self) -> Optional[str]:
        for fragment in self.fragments:
            value = fragment.attributes.get("request_id")
            if value is not None:
                return str(value)
        return None

    def iter_spans(self) -> Iterator[Span]:
        for fragment in self.fragments:
            yield from fragment.iter_spans()

    def span_names(self) -> List[str]:
        return [span.name for span in self.iter_spans()]

    def find_all(self, name: str) -> List[Span]:
        return [span for span in self.iter_spans() if span.name == name]

    def audit_asns(self) -> List[Any]:
        """ASNs recorded on spans — the trace→audit cross-link."""
        return [
            span.attributes["asn"]
            for span in self.iter_spans()
            if "asn" in span.attributes
        ]

    @property
    def duration_ms(self) -> float:
        if not self.fragments:
            return 0.0
        start = self.fragments[0].start
        end = max(
            (f.end for f in self.fragments if f.end is not None),
            default=start,
        )
        return (end - start) * 1000

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "duration_ms": round(self.duration_ms, 3),
            "fragments": [f.to_dict() for f in self.fragments],
            "audit_asns": self.audit_asns(),
        }

    def render(self) -> str:
        """The whole trace as one indented text timeline."""
        header = [
            f"trace {self.trace_id}"
            + (f" request_id={self.request_id}" if self.request_id else "")
            + f" fragments={len(self.fragments)}"
            + f" spans={len(self.span_names())}"
            + f" duration={self.duration_ms:.3f}ms"
        ]
        asns = self.audit_asns()
        if asns:
            header.append(f"audit_asns={asns}")
        lines = [" ".join(header)]
        origin = self.fragments[0].start if self.fragments else 0.0
        for index, fragment in enumerate(self.fragments):
            offset = (fragment.start - origin) * 1000
            cause = (
                f" caused_by={fragment.parent_id}"
                if fragment.parent_id
                else ""
            )
            lines.append(
                f"-- fragment {index} (+{offset:.3f}ms, "
                f"span {fragment.span_id}){cause} --"
            )
            lines.append(fragment.render())
        return "\n".join(lines)


class TraceAssembler:
    """Groups a tracer's retained root spans by trace id."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def assemble(self, request_id: str) -> Optional[AssembledTrace]:
        """The trace whose first root names ``request_id``, or None."""
        roots = self._tracer.roots()
        trace_id = next(
            (
                root.trace_id
                for root in roots
                if root.attributes.get("request_id") == request_id
            ),
            None,
        )
        if trace_id is None:
            return None
        fragments = [root for root in roots if root.trace_id == trace_id]
        return AssembledTrace(trace_id, fragments)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """Always-on bounded recorder dumped on anomaly triggers.

    The ring buffers it reads (tracer roots, the metrics registry, audit
    tails) are already maintained by the live system, so "always-on"
    costs nothing extra; :meth:`trigger` freezes them into one
    timestamped JSONL bundle, written atomically (temp file +
    ``os.replace``) so a reader never sees a half bundle. Triggers for
    the same anomaly kind are rate-limited to one bundle per
    :attr:`MIN_INTERVAL` seconds.
    """

    SPAN_LIMIT = 100  # newest root spans per bundle
    AUDIT_TAIL = 20  # newest records per audit section
    MIN_INTERVAL = 5.0

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.bundles: List[str] = []
        self.suppressed = 0
        self._sources: Dict[str, Callable[[], Any]] = {}
        self._last: Dict[str, float] = {}
        self._seq = 0
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)

    def add_source(self, name: str, fn: Callable[[], Any]) -> None:
        """Register an extra bundle section (e.g. one stack's audit tail)."""
        self._sources[name] = fn

    def add_audit_source(self, name: str, audit_log: Any) -> None:
        """Convenience: a section with the log's last N record dicts."""
        limit = self.AUDIT_TAIL

        def tail() -> List[Dict[str, Any]]:
            return [record.as_dict() for record in audit_log.tail(limit)]

        self.add_source(name, tail)

    def install(self) -> "FlightRecorder":
        """Attach to the active hub so :func:`repro.obs.anomaly` triggers
        dumps."""
        obs.active().flight = self
        return self

    def latest(self) -> Optional[str]:
        return self.bundles[-1] if self.bundles else None

    # -- dumping -------------------------------------------------------------

    def trigger(
        self, kind: str, detail: Optional[Dict[str, Any]] = None
    ) -> Optional[str]:
        """Dump a bundle of the active hub for one anomaly; returns its
        path (or None when rate-limited)."""
        now = time.monotonic()
        with self._lock:
            last = self._last.get(kind)
            if last is not None and now - last < self.MIN_INTERVAL:
                self.suppressed += 1
                return None
            self._last[kind] = now
            self._seq += 1
            seq = self._seq
        hub = obs.active()
        stamp = time.strftime(
            "%Y%m%dT%H%M%S", time.gmtime(time.time())
        )
        safe_kind = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in kind
        )
        path = os.path.join(
            self.directory, f"flight-{stamp}-{seq:04d}-{safe_kind}.jsonl"
        )
        lines = self._bundle_lines(kind, detail or {}, hub)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line, default=str) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self.bundles.append(path)
        hub.metrics.counter("flight_bundles_total", kind=kind).inc()
        return path

    def _bundle_lines(
        self, kind: str, detail: Dict[str, Any], hub: "obs.Observability"
    ) -> List[Dict[str, Any]]:
        lines: List[Dict[str, Any]] = [
            {
                "record": "flight",
                "anomaly": kind,
                "detail": detail,
                "unix_ts": time.time(),
                "pid": os.getpid(),
            }
        ]
        roots = hub.tracer.roots()[-self.SPAN_LIMIT:]
        lines.append(
            {
                "section": "spans",
                "count": len(roots),
                "spans": [root.to_dict() for root in roots],
            }
        )
        lines.append(
            {
                "section": "metrics",
                "snapshot": hub.metrics.snapshot(),
            }
        )
        for name in sorted(self._sources):
            try:
                data = self._sources[name]()
            except Exception as exc:  # a dying stack must not kill the dump
                data = {"error": f"{type(exc).__name__}: {exc}"}
            lines.append({"section": name, "data": data})
        return lines

    # -- inspection ----------------------------------------------------------

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    @staticmethod
    def inspect(path: str) -> str:
        """A human-readable rendering of one bundle."""
        records = FlightRecorder.load(path)
        if not records or records[0].get("record") != "flight":
            raise ValueError(f"{path}: not a flight-recorder bundle")
        header = records[0]
        when = time.strftime(
            "%Y-%m-%d %H:%M:%SZ", time.gmtime(header.get("unix_ts", 0))
        )
        lines = [
            f"flight bundle {os.path.basename(path)}",
            f"  anomaly: {header['anomaly']}",
            f"  at:      {when}",
        ]
        detail = header.get("detail") or {}
        for key in sorted(detail):
            lines.append(f"  {key}: {detail[key]}")
        for section in records[1:]:
            name = section.get("section", "?")
            if name == "spans":
                lines.append(f"  spans: {section.get('count', 0)} retained")
                for span in section.get("spans", [])[-5:]:
                    trace = span.get("trace_id")
                    suffix = f" trace={trace}" if trace else ""
                    lines.append(
                        f"    - {span['name']} "
                        f"[{span.get('duration_ms', 0)}ms]{suffix}"
                    )
            elif name == "metrics":
                snap = section.get("snapshot", {})
                lines.append(
                    "  metrics: "
                    f"{len(snap.get('counters', {}))} counters, "
                    f"{len(snap.get('gauges', {}))} gauges, "
                    f"{len(snap.get('histograms', {}))} histograms"
                )
            else:
                data = section.get("data")
                size = len(data) if isinstance(data, (list, dict)) else 1
                lines.append(f"  {name}: {size} entries")
                if isinstance(data, list):
                    for entry in data[-3:]:
                        if isinstance(entry, dict) and "asn" in entry:
                            trace = entry.get("trace")
                            suffix = f" trace={trace}" if trace else ""
                            lines.append(
                                f"    - #{entry['asn']} "
                                f"{entry.get('object', '?')}."
                                f"{entry.get('op', '?')} "
                                f"{entry.get('outcome', '?')}{suffix}"
                            )
        return "\n".join(lines)
