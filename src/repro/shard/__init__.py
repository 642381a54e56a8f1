"""Horizontal partitioning: routing, placement, and the sharded facade.

The paper's island-local translation makes base relations naturally
partitionable by pivot key — see :mod:`repro.shard.router` for the
placement rule, :mod:`repro.shard.sharded` for the N-engine facade,
and :mod:`repro.shard.twophase` for the cross-shard atomicity
protocol built on the write-ahead plan journal.
"""

from repro.shard.router import (
    HashRouter,
    Placement,
    RangeRouter,
    Router,
    partition_plan,
)
from repro.shard.sharded import ShardedPenguin, sharded_loader
from repro.shard.twophase import recover_two_phase, two_phase_apply

__all__ = [
    "HashRouter",
    "Placement",
    "RangeRouter",
    "Router",
    "ShardedPenguin",
    "partition_plan",
    "recover_two_phase",
    "sharded_loader",
    "two_phase_apply",
]
