"""The percentile rule, the host-speed reference and small helpers."""

from __future__ import annotations

import json
import math
import time
from typing import Iterable, Sequence

__all__ = [
    "percentile",
    "supported_tail",
    "median",
    "ratio",
    "host_slowdown_sample",
    "reference_kernel",
    "REFERENCE_KERNEL_S",
    "REFERENCE_INLINE_S",
]

#: What :func:`reference_kernel` takes on the reference sandbox when it is
#: quiet and called back to back. Only fixes the scale: a slowdown of 1.0
#: means "as fast as then".
REFERENCE_KERNEL_S = 330e-6

#: The same for one call made between the program's requests, which finds
#: the processor's caches holding the program's data, not its own.
REFERENCE_INLINE_S = 550e-6


def reference_kernel(n: int = 400) -> int:
    """A fixed piece of interpreter work shaped like the program's (dict
    probes, tuple keys, small allocations, a sort, a json encode)."""
    table = {}
    total = 0
    for i in range(n):
        key = (i % 97, i % 13)
        row = table.get(key)
        if row is None:
            row = table[key] = {"k0": i, "payload": "p%d" % i, "items": []}
        row["items"].append((i, key))
        total += len(row["items"]) + hash(key) % 3
    ordered = sorted(table.items(), key=lambda kv: kv[1]["k0"])
    return total + len(json.dumps([k for k, _ in ordered[:20]]))


def host_slowdown_sample(repeats: int = 5) -> float:
    """How much slower than nominal the host runs the reference kernel
    right now (median of ``repeats`` back-to-back calls); under 2 ms of
    work. Taken before and after a set-up; a timed pass samples single
    calls between its requests instead (``runner``)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return percentile(times, 50) / REFERENCE_KERNEL_S


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it. 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supported_tail(count: int, beyond: int = 10) -> int:
    """The highest of p99/p95/p90/p50 with at least ``beyond`` samples
    above it — the tail a sample of this size can state."""
    for q in (99, 95, 90):
        if count * (100 - q) / 100.0 >= beyond:
            return q
    return 50


def median(samples: Iterable[float]) -> float:
    return percentile(list(samples), 50)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
