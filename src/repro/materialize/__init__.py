"""Materialized view objects with incremental, changelog-driven upkeep.

The paper assembles view-object instances dynamically on every request
(Figure 4); this package caches the assembled trees and maintains them
by *delta propagation*: the engine's changelog hands over each committed
transaction's base-table changes, a :class:`DependencyIndex` maps each
change to the affected pivot keys by walking the projection tree's
connection paths in reverse, and :meth:`MaterializedView.sync` repairs
the cache — patching in-place replacements into the cached instances, evicting for
everything else, an evicted instance re-assembled on its next read.
Transactions compose correctly: a rolled-back change is never handed
over, and a read inside a transaction bypasses the cache.
"""

from repro.materialize.dependency import DependencyIndex
from repro.materialize.stats import CacheStats
from repro.materialize.store import LAZY, MaterializedStore, MaterializedView

__all__ = [
    "CacheStats",
    "DependencyIndex",
    "MaterializedStore",
    "MaterializedView",
    "LAZY",
]
