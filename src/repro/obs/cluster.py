"""The cluster-wide observability plane.

A sharded, replicated deployment runs a dozen stacks inside one
process and a single write crosses four of them. Their metrics already
meet in the hub's one registry, told apart by the ``shard=`` /
``replica=`` labels each serving facade stamps on its series; this
module reads across what :mod:`repro.obs.context` correlates:

* :func:`histogram_quantile` — Prometheus-style linear interpolation
  over the fixed buckets a histogram already keeps;
* :class:`SloTarget` / :class:`SloTracker` — declared objectives (p95
  write latency, availability) with multi-window burn rates computed
  from counter/histogram deltas, surfaced on ``/health``;
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
    "SloTarget",
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


class SloTarget:
    """One declared objective over existing instrument families.

    Two kinds:

    * ``latency`` — "fraction of ``family`` observations at or under
      ``threshold`` must be ≥ ``objective``" (threshold in the
      histogram's native unit, here milliseconds). ``quantile`` is
      what :meth:`SloTracker.report` additionally estimates for
      display (p95 by default).
    * ``availability`` — "fraction of ``family`` counter increments
      whose ``bad_label`` value does *not* start with a
      ``bad_prefixes`` entry must be ≥ ``objective``" (5xx statuses by
      default).
    """

    __slots__ = (
        "name",
        "kind",
        "objective",
        "family",
        "threshold",
        "quantile",
        "bad_label",
        "bad_prefixes",
        "description",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        objective: float,
        family: str,
        threshold: Optional[float] = None,
        quantile: float = 0.95,
        bad_label: str = "status",
        bad_prefixes: Tuple[str, ...] = ("5",),
        description: str = "",
    ) -> None:
        if kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {kind!r}")
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be a ratio in (0, 1)")
        if kind == "latency" and threshold is None:
            raise ValueError("a latency SLO needs a threshold")
        self.name = name
        self.kind = kind
        self.objective = objective
        self.family = family
        self.threshold = threshold
        self.quantile = quantile
        self.bad_label = bad_label
        self.bad_prefixes = bad_prefixes
        self.description = description

    @classmethod
    def latency(
        cls,
        name: str,
        family: str,
        threshold_ms: float,
        objective: float = 0.95,
        quantile: float = 0.95,
        description: str = "",
    ) -> "SloTarget":
        return cls(
            name,
            "latency",
            objective,
            family,
            threshold=threshold_ms,
            quantile=quantile,
            description=description,
        )

    @classmethod
    def availability(
        cls,
        name: str,
        family: str,
        objective: float = 0.999,
        bad_label: str = "status",
        bad_prefixes: Tuple[str, ...] = ("5",),
        description: str = "",
    ) -> "SloTarget":
        return cls(
            name,
            "availability",
            objective,
            family,
            bad_label=bad_label,
            bad_prefixes=bad_prefixes,
            description=description,
        )

    def _folded(self, registry: MetricsRegistry) -> Optional[Histogram]:
        """The latency family folded across its label sets (every shard
        and replica observes into the same bounds), or None."""
        parts = registry.histograms(self.family)
        if not parts:
            return None
        folded = Histogram(self.family, buckets=parts[0].buckets)
        for part in parts:
            folded.merge(part)
        return folded

    def good_bad(self, registry: MetricsRegistry) -> Tuple[float, float]:
        """Cumulative (good, bad) event counts for this objective."""
        if self.kind == "latency":
            folded = self._folded(registry)
            if folded is None:
                return 0.0, 0.0
            counts = folded.bucket_counts()
            good = sum(
                counts[f"le={bound:g}"]
                for bound in folded.buckets
                if bound <= self.threshold
            )
            return float(good), float(folded.count - good)
        good = bad = 0.0
        for counter in registry.counters(self.family):
            status = dict(counter.labels).get(self.bad_label, "")
            if status.startswith(self.bad_prefixes):
                bad += counter.value
            else:
                good += counter.value
        return good, bad

    def estimate(self, registry: MetricsRegistry) -> Optional[float]:
        """The display estimate: latency quantile, or None."""
        if self.kind != "latency":
            return None
        folded = self._folded(registry)
        if folded is None:
            return None
        return histogram_quantile(folded, self.quantile)


class SloTracker:
    """Multi-window burn rates over cumulative good/bad counts.

    Burn rate is the classic definition: the error rate observed over
    a window, divided by the error budget ``1 - objective``. A burn
    of 1.0 spends the budget exactly at the objective's pace; 14.4
    over an hour is Google's "page now" threshold, and :attr:`
    fast_burn_threshold` defaults near it. Each :meth:`sample` appends
    cumulative counts to a bounded deque, so the tracker costs O(1)
    per health poll and nothing on the write path.
    """

    MIN_WINDOW_EVENTS = 10  # don't alert on the first unlucky request

    def __init__(
        self,
        targets: Sequence[SloTarget],
        fast_window: float = 60.0,
        slow_window: float = 3600.0,
        fast_burn_threshold: float = 14.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.targets = list(targets)
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.fast_burn_threshold = fast_burn_threshold
        self.clock = clock
        self._lock = threading.Lock()
        self._samples: Dict[str, deque] = {
            t.name: deque() for t in self.targets
        }
        self._burning: Dict[str, bool] = {t.name: False for t in self.targets}

    def _window_rates(
        self, samples: deque, now: float
    ) -> Dict[str, Optional[float]]:
        """Error rate over each window, or None with too little data."""
        out: Dict[str, Optional[float]] = {}
        for label, window in (
            ("fast", self.fast_window),
            ("slow", self.slow_window),
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

    def sample(
        self, hub: Optional["obs.Observability"] = None
    ) -> Dict[str, Any]:
        """Take one sample and return the SLO report.

        Also exports an ``slo_attainment{slo=}`` gauge and fires the
        ``slo_fast_burn`` anomaly on the *transition* into fast burn
        (so a long incident produces one flight bundle, not one per
        health poll).
        """
        hub = hub if hub is not None else obs.active()
        registry = hub.metrics
        now = self.clock()
        report: Dict[str, Any] = {}
        fired: List[str] = []
        with self._lock:
            for target in self.targets:
                good, bad = target.good_bad(registry)
                samples = self._samples[target.name]
                samples.append((now, good, bad))
                while samples and samples[0][0] < now - self.slow_window:
                    samples.popleft()
                rates = self._window_rates(samples, now)
                budget = 1.0 - target.objective
                burn = {
                    label: (None if rate is None else rate / budget)
                    for label, rate in rates.items()
                }
                total = good + bad
                attainment = (good / total) if total else None
                fast_burning = (
                    burn["fast"] is not None
                    and burn["fast"] >= self.fast_burn_threshold
                )
                if fast_burning and not self._burning[target.name]:
                    fired.append(target.name)
                self._burning[target.name] = fast_burning
                entry: Dict[str, Any] = {
                    "kind": target.kind,
                    "objective": target.objective,
                    "attainment": attainment,
                    "good": good,
                    "bad": bad,
                    "burn": burn,
                    "fast_burn": fast_burning,
                }
                estimate = target.estimate(registry)
                if estimate is not None:
                    entry[f"p{int(target.quantile * 100)}_ms"] = round(
                        estimate, 3
                    )
                    entry["threshold_ms"] = target.threshold
                report[target.name] = entry
                if attainment is not None:
                    registry.gauge(
                        "slo_attainment", slo=target.name
                    ).set(attainment)
        for name in fired:
            obs.anomaly(
                "slo_fast_burn",
                slo=name,
                burn=report[name]["burn"]["fast"],
                threshold=self.fast_burn_threshold,
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

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer

    def _roots(self) -> Tuple[Span, ...]:
        tracer = self._tracer if self._tracer is not None else obs.tracer()
        return tracer.roots()

    def assemble(
        self,
        trace_id: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Optional[AssembledTrace]:
        """One trace by id or by the request id riding in its spans."""
        if trace_id is None and request_id is None:
            raise ValueError("need a trace_id or a request_id")
        if trace_id is None:
            for root in self._roots():
                if root.attributes.get("request_id") == request_id:
                    trace_id = root.trace_id
                    break
            if trace_id is None:
                return None
        fragments = [
            root for root in self._roots() if root.trace_id == trace_id
        ]
        if not fragments:
            return None
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
    ``min_interval`` seconds.
    """

    def __init__(
        self,
        directory: str,
        span_limit: int = 100,
        audit_tail: int = 20,
        min_interval: float = 5.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = directory
        self.span_limit = span_limit
        self.audit_tail = audit_tail
        self.min_interval = min_interval
        self.clock = clock
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
        limit = self.audit_tail

        def tail() -> List[Dict[str, Any]]:
            return [record.as_dict() for record in audit_log.tail(limit)]

        self.add_source(name, tail)

    def install(self, hub: Optional["obs.Observability"] = None) -> "FlightRecorder":
        """Attach to a hub so :func:`repro.obs.anomaly` triggers dumps."""
        hub = hub if hub is not None else obs.active()
        hub.flight = self
        return self

    def latest(self) -> Optional[str]:
        return self.bundles[-1] if self.bundles else None

    # -- dumping -------------------------------------------------------------

    def trigger(
        self,
        kind: str,
        detail: Optional[Dict[str, Any]] = None,
        hub: Optional["obs.Observability"] = None,
    ) -> Optional[str]:
        """Dump a bundle for one anomaly; returns its path (or None
        when rate-limited)."""
        now = time.monotonic()
        with self._lock:
            last = self._last.get(kind)
            if last is not None and now - last < self.min_interval:
                self.suppressed += 1
                return None
            self._last[kind] = now
            self._seq += 1
            seq = self._seq
        hub = hub if hub is not None else obs.active()
        stamp = time.strftime(
            "%Y%m%dT%H%M%S", time.gmtime(self.clock())
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
                "unix_ts": self.clock(),
                "pid": os.getpid(),
            }
        ]
        roots = hub.tracer.roots()[-self.span_limit:]
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
