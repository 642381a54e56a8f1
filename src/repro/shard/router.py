"""Deterministic shard routing for horizontally partitioned databases.

The paper's translation machinery is island-local: once the DBA dialog
fixes a translator, a view-object update touches only the relations of
one dependency island, and every island tuple carries the pivot key in
its own primary key (the structural model's ownership chains accumulate
key attributes downward). That makes base relations naturally
partitionable *by pivot key*:

* a relation whose primary key contains every pivot-key attribute is
  **partitioned** — each tuple lives on exactly one shard, chosen by
  the pivot-key values it carries;
* every other relation (referenced lookups like ``PHYSICIAN`` or
  ``MEDICATION``, small dimension tables) is **replicated** — present
  on every shard, so island-local translation can run entirely on the
  owning shard.

:class:`Placement` computes that classification from a structural
schema; :class:`HashRouter` and :class:`RangeRouter` map routing keys
to shard ids deterministically (stable across processes — no reliance
on Python's randomized ``hash``); :func:`partition_plan` splits a
translated :class:`~repro.relational.operations.UpdatePlan` into
per-shard sub-plans, in plan order, turning a pivot-key re-homing
replacement into a delete on the old owner plus an insert on the new
one.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import UpdateError
from repro.relational.operations import Delete, Insert, UpdatePlan
from repro.structural.schema_graph import StructuralSchema

__all__ = [
    "Placement",
    "Router",
    "HashRouter",
    "RangeRouter",
    "partition_plan",
]

RoutingKey = Tuple[Any, ...]


def stable_hash(key: Sequence[Any]) -> int:
    """A process-stable 64-bit hash of a routing key.

    Python's built-in ``hash`` is randomized per process for strings,
    which would scatter the same pivot key to different shards across
    restarts; routing must be a pure function of the data.
    """
    digest = hashlib.blake2b(digest_size=8)
    for value in key:
        digest.update(type(value).__name__.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(str(value).encode("utf-8"))
        digest.update(b"\x1e")
    return int.from_bytes(digest.digest(), "big")


class Router:
    """Maps a routing key (the pivot-key values) to a shard id."""

    num_shards: int

    def shard_of(self, key: Sequence[Any]) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class HashRouter(Router):
    """Uniform hash partitioning over a stable key hash."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, key: Sequence[Any]) -> int:
        return stable_hash(key) % self.num_shards

    def describe(self) -> str:
        return f"hash({self.num_shards})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRouter({self.num_shards})"


class RangeRouter(Router):
    """Range partitioning on the *first* routing-key attribute.

    ``boundaries`` are the sorted split points: shard 0 serves keys
    strictly below ``boundaries[0]``, shard i serves
    ``boundaries[i-1] <= key < boundaries[i]``, and the last shard
    serves everything from ``boundaries[-1]`` up. With N-1 boundaries
    there are N shards.
    """

    def __init__(self, boundaries: Sequence[Any]) -> None:
        if not boundaries:
            raise ValueError("a RangeRouter needs at least one boundary")
        ordered = list(boundaries)
        if ordered != sorted(ordered):
            raise ValueError(f"boundaries must be sorted: {boundaries!r}")
        self.boundaries = ordered
        self.num_shards = len(ordered) + 1

    def shard_of(self, key: Sequence[Any]) -> int:
        return bisect.bisect_right(self.boundaries, key[0])

    def describe(self) -> str:
        return f"range({self.boundaries!r})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeRouter({self.boundaries!r})"


class Placement:
    """Partitioned-vs-replicated classification of one schema's relations.

    Parameters
    ----------
    graph:
        The structural schema.
    partition_by:
        The pivot relation whose primary key is the partitioning key.
        A relation is partitioned iff its own primary key contains
        every partitioning attribute (in the structural model, exactly
        the pivot relation and the ownership chain hanging off it);
        everything else is replicated to all shards.
    """

    def __init__(self, graph: StructuralSchema, partition_by: str) -> None:
        self.graph = graph
        self.partition_by = partition_by
        pivot_schema = graph.relation(partition_by)
        self.partition_attrs: Tuple[str, ...] = tuple(pivot_schema.key)
        self._key_positions: Dict[str, Tuple[int, ...]] = {}
        self._value_positions: Dict[str, Tuple[int, ...]] = {}
        for name in graph.relation_names:
            schema = graph.relation(name)
            key_attrs = tuple(schema.key)
            if all(attr in key_attrs for attr in self.partition_attrs):
                self._key_positions[name] = tuple(
                    key_attrs.index(attr) for attr in self.partition_attrs
                )
                names = schema.attribute_names
                self._value_positions[name] = tuple(
                    names.index(attr) for attr in self.partition_attrs
                )

    @property
    def partitioned(self) -> Tuple[str, ...]:
        return tuple(sorted(self._key_positions))

    @property
    def replicated(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                name
                for name in self.graph.relation_names
                if name not in self._key_positions
            )
        )

    def is_partitioned(self, relation: str) -> bool:
        return relation in self._key_positions

    def routing_key_of_key(
        self, relation: str, key: Sequence[Any]
    ) -> RoutingKey:
        """The routing key carried by a partitioned relation's primary key."""
        positions = self._key_positions[relation]
        return tuple(key[i] for i in positions)

    def routing_key_of_values(
        self, relation: str, values: Sequence[Any]
    ) -> RoutingKey:
        """The routing key carried by a partitioned relation's full tuple."""
        positions = self._value_positions[relation]
        return tuple(values[i] for i in positions)

    def describe(self) -> str:
        return (
            f"partition by {self.partition_by}"
            f"{list(self.partition_attrs)!r}: "
            f"partitioned={list(self.partitioned)}, "
            f"replicated={list(self.replicated)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Placement({self.partition_by!r}, {self.partition_attrs!r})"


def partition_plan(
    plan: UpdatePlan,
    placement: Placement,
    router: Router,
    num_shards: Optional[int] = None,
) -> Dict[int, UpdatePlan]:
    """Split a plan into per-shard sub-plans, each in plan order.

    * operations on replicated relations go to **every** shard (the
      replicas must stay in lockstep — this is what lets island-local
      translation run on any single shard);
    * operations on partitioned relations go to the shard owning their
      routing key;
    * a replacement whose new values re-home the routing key to a
      different shard is split into a ``Delete`` on the old owner and
      an ``Insert`` on the new one.

    Returns only the shards with work ({} for an empty plan); a
    single-key result means the plan is island-local and needs no
    cross-shard coordination.
    """
    shard_count = num_shards if num_shards is not None else router.num_shards
    split: Dict[int, UpdatePlan] = {}

    def plan_for(shard_id: int) -> UpdatePlan:
        sub = split.get(shard_id)
        if sub is None:
            sub = split[shard_id] = UpdatePlan()
        return sub

    for operation, reason in zip(plan.operations, plan.reasons):
        relation = operation.relation
        if not placement.is_partitioned(relation):
            for shard_id in range(shard_count):
                plan_for(shard_id).add(operation, reason)
            continue
        if operation.kind == "insert":
            routing = placement.routing_key_of_values(
                relation, operation.values
            )
            plan_for(router.shard_of(routing)).add(operation, reason)
        elif operation.kind == "delete":
            routing = placement.routing_key_of_key(relation, operation.key)
            plan_for(router.shard_of(routing)).add(operation, reason)
        else:  # replace
            old_routing = placement.routing_key_of_key(
                relation, operation.key
            )
            new_routing = placement.routing_key_of_values(
                relation, operation.values
            )
            old_shard = router.shard_of(old_routing)
            new_shard = router.shard_of(new_routing)
            if old_shard == new_shard:
                plan_for(old_shard).add(operation, reason)
            else:
                plan_for(old_shard).add(
                    Delete(relation, operation.key),
                    reason or "re-homed to another shard",
                )
                plan_for(new_shard).add(
                    Insert(relation, operation.values),
                    reason or "re-homed from another shard",
                )
    for shard_id in split:
        if shard_id < 0 or shard_id >= shard_count:
            raise UpdateError(
                f"router produced shard {shard_id} outside 0..{shard_count - 1}"
            )
    return split
