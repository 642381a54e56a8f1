"""Counters describing how a materialized view object is behaving.

The numbers answer the operational questions the ROADMAP's "fast as the
hardware allows" goal raises: how often does the cache actually serve a
request (``hits`` vs ``misses``), how much maintenance work does the
committed records cause (``records_applied``; ``patched`` — cached
instances overwritten in place from a record, no engine read;
``invalidations`` — cached instances evicted). How far behind the base
tables the cache is, is the view's ``staleness()``: committed records
handed over and not yet applied.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CacheStats"]


class CacheStats:
    """Mutable per-view cache counters (also aggregated per store)."""

    __slots__ = (
        "hits",
        "misses",
        "patched",
        "invalidations",
        "records_applied",
        "stale_reads",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.patched = 0
        self.invalidations = 0
        self.records_applied = 0
        # Requests answered from the cache *without* consulting the
        # engine — degraded-mode serving. Possibly out of date.
        self.stale_reads = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of instance requests served from cache (0.0 if none)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Add ``other``'s counters into this one (store aggregation)."""
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {f: getattr(self, f) for f in self.__slots__}
        out["hit_rate"] = round(self.hit_rate, 4)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{f}={getattr(self, f)}" for f in self.__slots__)
        return f"CacheStats({inner})"
