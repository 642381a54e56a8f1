"""A thread-safe, zero-dependency metrics registry.

The serving story grown around the paper's translator — materialized
caches, batched pipelines, retries, circuit breaking, journaled
recovery — needs *numbers*: how many translations ran, how large their
plans were, how often the cache answered, how hard the retry policy is
working. This module provides the three classic instrument kinds:

* :class:`Counter` — a monotonically increasing count (``inc``);
* :class:`Gauge` — a value that goes up and down (``set``/``add``);
* :class:`Histogram` — observations bucketed under fixed upper bounds,
  plus a running sum and count.

A :class:`MetricsRegistry` names instruments (optionally with labels),
creates them on first use, and renders the whole family set either as a
nested :meth:`~MetricsRegistry.snapshot` dictionary or as a
Prometheus-style :meth:`~MetricsRegistry.render_text` exposition.

Every instrument takes its own lock, so concurrent serving threads can
record without contending on a registry-wide lock; the registry lock is
only taken when an instrument is first created (or enumerated).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["MetricsRegistry"]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, sized for plan/op counts and millisecond
#: durations alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 250, 1000)


def _label_pairs(labels: Dict[str, Any]) -> LabelPairs:
    if not labels:
        return ()
    if len(labels) == 1:
        # The overwhelmingly common case at instrumented call sites
        # (op=..., object=..., engine=...): skip the sort.
        ((key, value),) = labels.items()
        return ((key, str(value)),)
    if len(labels) == 2:
        # Two labels (shard=..., outcome=...) covers nearly all of the
        # rest; one comparison beats building a generator for sorted().
        (k1, v1), (k2, v2) = labels.items()
        if k1 <= k2:
            return ((k1, str(v1)), (k2, str(v2)))
        return ((k2, str(v2)), (k1, str(v1)))
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus exposition format: inside a quoted
    label value, backslash, double-quote, and line-feed must appear as
    ``\\\\``, ``\\"``, and ``\\n``."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{_render_labels(self.labels)}={self.value})"


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{_render_labels(self.labels)}={self.value})"


class Histogram:
    """Fixed-bucket histogram with cumulative bucket counts.

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches everything beyond the largest bound, so ``count`` always
    equals the number of observations.
    """

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> Dict[str, int]:
        """Per-bucket (non-cumulative) observation counts."""
        with self._lock:
            out = {
                f"le={bound:g}": count
                for bound, count in zip(self.buckets, self._counts)
            }
            out["le=+Inf"] = self._counts[-1]
            return out

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations into this histogram (same bounds)."""
        if other.buckets != self.buckets:
            raise ValueError("only histograms with the same bounds merge")
        with other._lock:
            counts, total, count = list(other._counts), other._sum, other._count
        with self._lock:
            self._counts = [a + b for a, b in zip(self._counts, counts)]
            self._sum += total
            self._count += count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, count={self.count}, sum={self.sum})"


class MetricsRegistry:
    """Names instruments, creates them on first use, renders them all.

    >>> registry = MetricsRegistry()
    >>> registry.counter("translations_total", op="insert").inc()
    >>> registry.counter("translations_total", op="insert").value
    1.0
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}

    # -- instrument access (create on first use) ----------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_pairs(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter(*key))
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_pairs(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge(*key))
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_pairs(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(key[0], key[1], DEFAULT_BUCKETS)
                )
        return instrument

    # -- aggregation ---------------------------------------------------------

    def counters(self, name: str) -> List[Counter]:
        """One counter family, one instrument per label set."""
        with self._lock:
            return [c for (n, _), c in self._counters.items() if n == name]

    def histograms(self, name: str) -> List[Histogram]:
        """One histogram family, one instrument per label set."""
        with self._lock:
            return [h for (n, _), h in self._histograms.items() if n == name]

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every instrument's current value, as plain data."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        out: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for counter in counters:
            key = counter.name + _render_labels(counter.labels)
            out["counters"][key] = counter.value
        for gauge in gauges:
            key = gauge.name + _render_labels(gauge.labels)
            out["gauges"][key] = gauge.value
        for histogram in histograms:
            key = histogram.name + _render_labels(histogram.labels)
            out["histograms"][key] = {
                "count": histogram.count,
                "sum": histogram.sum,
                "buckets": histogram.bucket_counts(),
            }
        return out

    def render_text(self) -> str:
        """Prometheus-style text exposition of every instrument."""
        snap = self.snapshot()
        lines: List[str] = []
        for kind in ("counters", "gauges"):
            type_name = kind[:-1]  # counter / gauge
            for key in sorted(snap[kind]):
                lines.append(f"# TYPE {key.split('{')[0]} {type_name}")
                lines.append(f"{key} {snap[kind][key]:g}")
        for key in sorted(snap["histograms"]):
            data = snap["histograms"][key]
            base, brace, labels = key.partition("{")
            lines.append(f"# TYPE {base} histogram")
            for bucket, count in data["buckets"].items():
                bound = bucket.split("=", 1)[1]
                label_text = labels[:-1] + "," if brace else ""
                lines.append(
                    f'{base}_bucket{{{label_text}le="{bound}"}} {count}'
                )
            lines.append(f"{base}_sum{brace}{labels} {data['sum']:g}")
            lines.append(f"{base}_count{brace}{labels} {data['count']}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop every instrument (tests and fresh benchmark runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = "null"
    labels: LabelPairs = ()
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry(MetricsRegistry):
    """A registry whose instruments discard everything.

    Returned by :func:`repro.obs.metrics` while metrics are disabled:
    instrumented code paths stay branch-free and pay only a method call.
    """

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: Any):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any):
        return _NULL_INSTRUMENT


NULL_REGISTRY = _NullRegistry()
