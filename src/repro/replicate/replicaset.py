"""The per-shard replication coordinator: quorum writes and failover.

A :class:`ReplicaSet` owns one shard's primary plus its replica stacks
and the shipping links to them, and holds the whole protocol state: the
record **stream** (what has been committed on the primary, in order),
the per-link shipping cursors, the **epoch** (bumped by every
failover; fences the previous primary), and the **failure detector**.

The write path is *commit-then-ship with revert*: the plan commits on
the primary (journal, audit, breaker — unchanged), the fresh committed
audit records are taken off a :class:`~repro.obs.audit.ShippingCursor`
and shipped to every link, and the client is acked only if at least
:attr:`ReplicationConfig.QUORUM` replicas confirmed durable receipt. A write that cannot
reach quorum is **reverted** on the primary (cells forced back to
before-images, audit resolved ``rolled_back``) and on any replica that
did receive it, then refused with
:class:`~repro.errors.ReplicationQuorumError` — the quorum-reachability
pre-check makes this revert path rare, exactly like the circuit
breaker's fail-fast before the write lock.

Failover promotes the most-caught-up live replica: drain its inbox
(replay the journal tail), bump the epoch, fence the old primary,
truncate the stream to the promoted prefix, and re-point everything —
:class:`~repro.shard.sharded.Shard` resolves ``serving`` through
``replica_set.primary`` dynamically, so routing follows automatically.
Because every acked write is on at least ``QUORUM ≥ 1`` replicas and
every replica holds a stream *prefix*, the promoted maximum contains
the union of all replicated records: no committed-acked write is lost.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import repro.obs as obs
from repro.errors import (
    DegradedServiceError,
    FailoverInProgressError,
    PrimaryDownError,
    ReplicationError,
    ReplicationQuorumError,
    TransientEngineError,
)
from repro.obs.audit import ROLLED_BACK, ShippingCursor
from repro.relational.faults import FaultHook
from repro.relational.journal import UpdateRecord, restore_images
from repro.relational.operations import UpdatePlan
from repro.replicate.link import ShippingLink
from repro.replicate.replica import ReplicaStack
from repro.serve.concurrent import ConcurrentPenguin, ServedRead
from repro.serve.locks import ReadWriteLock
from repro.structural.schema_graph import StructuralSchema

__all__ = ["ReplicaSet", "ReplicationConfig"]


class ReplicationConfig:
    """How a :class:`~repro.shard.sharded.ShardedPenguin` replicates.

    Every replica applies a shipped record on the thread that delivered
    it, right after the durable receipt the quorum counts; there is no
    applier thread to configure.

    Parameters
    ----------
    replicas:
        Replica stacks per shard.
    engine_factory:
        Zero-argument callable producing the relational engine each
        fresh replica stack stores into (e.g. ``SqliteEngine``). A
        replica that may be promoted should persist the way its
        primary does; ``None`` keeps the in-memory default.
    """

    #: Durable receipts (replica acks) a write needs before the client
    #: is acked.
    QUORUM = 1

    def __init__(
        self,
        replicas: int = 1,
        engine_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replication needs at least one replica")
        self.replicas = replicas
        self.engine_factory = engine_factory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplicationConfig(replicas={self.replicas})"


class FailureDetector:
    """Count-based probe tracking, one per replica set.

    Deterministic on purpose (mirroring the circuit breaker's
    count-based probing): :attr:`MISS_THRESHOLD` consecutive misses —
    failed writes against a dead primary, failed heartbeats — flip
    :attr:`down` and authorize failover; any success resets the count.
    """

    MISS_THRESHOLD = 3

    def __init__(self) -> None:
        self.misses = 0
        self.total_misses = 0

    def record_ok(self) -> None:
        self.misses = 0

    def record_miss(self) -> None:
        self.misses += 1
        self.total_misses += 1

    @property
    def down(self) -> bool:
        return self.misses >= self.MISS_THRESHOLD

    def reset(self) -> None:
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FailureDetector({self.misses}/{self.MISS_THRESHOLD} missed)"
        )


class ReplicaSet:
    """One shard's primary + replicas, kept in sync by log shipping."""

    def __init__(
        self,
        shard_id: int,
        primary_serving: ConcurrentPenguin,
        graph: StructuralSchema,
        config: Optional[ReplicationConfig] = None,
    ) -> None:
        self.shard_id = shard_id
        self.config = config or ReplicationConfig()
        self.graph = graph
        self.epoch = 1
        self.failovers = 0
        self.failing_over = False
        #: The deployment's fault hook (``ShardedPenguin.failpoint`` hands
        #: it down), ticked with the point's name and ``shard=`` this id.
        self.failpoint: Optional[FaultHook] = None
        self.primary = ReplicaStack(shard_id, "primary", serving=primary_serving)
        self.detector = FailureDetector()
        self._replicas: List[ReplicaStack] = []
        self._links: Dict[str, ShippingLink] = {}
        for index in range(self.config.replicas):
            replica = ReplicaStack(
                shard_id,
                f"r{index + 1}",
                graph=graph,
                engine_factory=self.config.engine_factory,
            )
            self._replicas.append(replica)
            self._links[replica.name] = ShippingLink(replica)
        self._stream: List[UpdateRecord] = []
        self._cursor = ShippingCursor(self.primary.audit)
        # The shard's writer serialiser (see admitted): translate, apply
        # and ship of one write at a time, so plans land on the state
        # they were translated against and stream positions stay dense
        # and ordered; reads never take it. Only the lock's exclusive
        # side is used: a re-entrant mutex whose waiters can be counted.
        self._mutex = ReadWriteLock()

    # -- topology accessors --------------------------------------------------

    @property
    def replicas(self) -> List[ReplicaStack]:
        return list(self._replicas)

    def link(self, name: str) -> ShippingLink:
        return self._links[name]

    @property
    def stream_length(self) -> int:
        return len(self._stream)

    def lag(self, replica: ReplicaStack) -> int:
        """Stream records this replica has not applied yet."""
        return max(0, len(self._stream) - replica.applied_count)

    def _reachable(self) -> int:
        """Replicas that could ack a write now: link reachable, not
        divergent."""
        return sum(
            1
            for replica in self._replicas
            if not replica.divergent and self._links[replica.name].reachable
        )

    def quorum_reachable(self) -> bool:
        """Whether enough replicas could plausibly ack a write now."""
        return self._reachable() >= self.config.QUORUM

    @property
    def queued(self) -> int:
        """Writers waiting on the guard behind the one that holds it."""
        return self._mutex.waiting_writers

    def _primary_down(self) -> bool:
        """A killed or fenced primary takes no further action."""
        return self.primary.killed or self.primary.fenced

    def _checkpoint(self, point: str) -> None:
        """Tick ``failpoint``: in order, ``pre_apply``, ``post_apply``,
        ``pre_ship``, ``post_ship`` on the write path, ``pre_promote``,
        ``post_drain``, ``post_promote`` in a failover; ``ship`` before
        every send and ``probe`` on every heartbeat."""
        if self.failpoint is not None:
            self.failpoint.tick(point, shard=self.shard_id)

    def _count(self, name: str, **labels: str) -> None:
        obs.metrics().counter(
            name, shard=str(self.shard_id), **labels
        ).inc()

    def _promotable(self) -> List[ReplicaStack]:
        """Live, non-divergent replicas, most caught up first."""
        return sorted(
            (r for r in self._replicas if not r.killed and not r.divergent),
            key=lambda r: (-r.received_count, r.name),
        )

    # -- the replicated write path -------------------------------------------

    @contextlib.contextmanager
    def admitted(
        self, op: str = "update", object_name: str = ""
    ) -> Iterator[None]:
        """The shard's write guard; same contract and signature as
        :meth:`ConcurrentPenguin.admitted`, entered before the translate
        half and held to the quorum ack.

        ``_mutex`` is the shard's writer serialiser. It belongs to the
        set, not to a primary's stack: a failover inside a write
        re-points ``primary``, and a lock owned by the old primary would
        let a second writer in behind the promotion. It is always taken
        first — ``_mutex`` → the primary's guard → the primary's lock —
        so a writer that fails over here can never deadlock against one
        already holding the new primary. Then: a live primary (failing
        over right here when the detector says so), a reachable quorum
        (refused before the primary is touched), the primary's own guard.
        """
        with self._mutex:
            self._ensure_primary_up()
            reachable = self._reachable()
            if reachable < self.config.QUORUM:
                self._count(
                    "replication_refused_total", reason="quorum_unreachable"
                )
                raise ReplicationQuorumError(
                    f"shard {self.shard_id}: only {reachable} replica "
                    f"link(s) reachable, quorum is {self.config.QUORUM}; "
                    f"write refused"
                )
            with self.primary.serving.admitted(op, object_name):
                yield

    def apply_plan(
        self, name: str, plan: UpdatePlan, op: str = "update", items: int = 1
    ) -> UpdatePlan:
        """Commit on the primary, ship, ack only on quorum receipt.

        Re-entering the guard may promote a replica between the owner's
        translation and this landing; the plan's images, folded on the
        old primary, are then the promoted stack's cells too: it holds
        every acked record, and a write that missed quorum was reverted.
        """
        with self.admitted(op, name):
            self._checkpoint("pre_apply")
            result = self.primary.serving.apply_plan(
                name, plan, op=op, items=items
            )
            self._checkpoint("post_apply")
            self.ship_record()
            return result

    def ship_record(self) -> None:
        """The one ship step — of a local write, or of this shard's part
        of a two-phase commit: ship each committed record the primary
        audited since the last ship. One short of the quorum is
        retracted, reverted on the primary and refused
        (:class:`~repro.errors.ReplicationQuorumError`)."""
        with self._mutex:
            for record in self._cursor.take():
                try:
                    self._append_and_ship(record)
                except ReplicationQuorumError:
                    self._revert_primary(record)
                    raise
            self._update_lag_metrics()

    def retract(self, record: UpdateRecord) -> None:
        """Undo ``record`` on every replica holding it, if it is still the
        stream's newest (a cross-shard abort; a refused ship already
        took it off)."""
        with self._mutex:
            if self._stream and self._stream[-1] is record:
                self._retract(len(self._stream), record)

    def catch_up(self) -> int:
        """Re-ship every backlog and drain every replica; returns ships.

        The heal path after a partition: wedged links accumulate
        backlog, :meth:`catch_up` (or the next write) pushes it, and
        the lag gauge returns to zero. A killed or fenced primary takes
        no further action — it ships nothing, here as in
        :meth:`_append_and_ship`: what it committed and never shipped
        was never acked, and the replicas are about to be promoted
        without it — so only the drain below runs.
        """
        shipped = 0
        with self._mutex:
            senders = [] if self._primary_down() else self._replicas
            for replica in senders:
                link = self._links[replica.name]
                before = link.cursor
                try:
                    self._ship_backlog(link)
                except (TransientEngineError, ReplicationError):
                    pass
                shipped += link.cursor - before
            self._update_lag_metrics()
        for replica in self._replicas:
            if not replica.killed:
                replica.drain()
        self._update_lag_metrics()
        return shipped

    # -- write-path internals ------------------------------------------------

    def _ensure_primary_up(self) -> None:
        """Fail, fail over, or fall through — the write-path detector.

        Every attempt against a dead or fenced primary counts one miss;
        once the detector crosses its threshold the failover runs right
        here and the write proceeds against the new primary.
        """
        if self.failing_over:
            raise FailoverInProgressError(
                f"shard {self.shard_id}: failover in progress; retry"
            )
        while self._primary_down():
            self._miss()
            if not self.detector.down:
                raise PrimaryDownError(
                    f"shard {self.shard_id}: primary unreachable "
                    f"({self.detector.misses}/{self.detector.MISS_THRESHOLD}"
                    f" missed probes)"
                )
            self._failover()

    def _append_and_ship(self, shipped: UpdateRecord) -> None:
        with obs.tracer().span(
            "replicate.ship", shard=self.shard_id, object=shipped.label
        ) as span:
            self._stream.append(shipped)
            position = len(self._stream)
            acks = 0
            for replica in self._replicas:
                link = self._links[replica.name]
                self._checkpoint("pre_ship")
                if self._primary_down():
                    # The primary died before this record left the box:
                    # the client is not acked. Replicas that already hold
                    # it keep it — the plan applied atomically, nothing
                    # tears.
                    self.detector.record_miss()
                    raise PrimaryDownError(
                        f"shard {self.shard_id}: primary died mid-ship"
                    )
                try:
                    self._ship_backlog(link)
                except (TransientEngineError, ReplicationError):
                    continue
                if link.cursor >= position:
                    acks += 1
            self._checkpoint("post_ship")
            span.set(position=position, acks=acks)
            if acks < self.config.QUORUM:
                self._retract(position, shipped)
                self._count("replication_refused_total", reason="quorum_failed")
                obs.anomaly(
                    "quorum_revert",
                    shard=self.shard_id,
                    acks=acks,
                    quorum=self.config.QUORUM,
                    object=shipped.label,
                )
                raise ReplicationQuorumError(
                    f"shard {self.shard_id}: write reached {acks} "
                    f"replica(s), quorum is {self.config.QUORUM}; reverted"
                )

    def _ship_backlog(self, link: ShippingLink) -> None:
        """Push everything past this link's cursor, in stream order."""
        while link.cursor < len(self._stream):
            record = self._stream[link.cursor]
            self._checkpoint("ship")
            link.send(self.epoch, link.cursor + 1, record)
            link.cursor += 1

    def _retract(self, position: int, record: UpdateRecord) -> None:
        if position != len(self._stream):
            raise ReplicationError(
                f"shard {self.shard_id}: can only retract the stream head"
            )
        self._stream.pop()
        for replica in self._replicas:
            link = self._links[replica.name]
            if link.cursor >= position:
                replica.retract(position, record)
                link.cursor = position - 1

    def _revert_primary(self, record: UpdateRecord) -> None:
        """Roll the primary's own commit back after a quorum failure."""
        restore_images(self.primary.engine, record.images(), to_after=False)
        self.primary.audit.resolve(
            record.id,
            ROLLED_BACK,
            error="replication quorum not reached",
        )

    # -- failure detection and failover --------------------------------------

    def _miss(self) -> None:
        """One missed probe: a write, a read or a heartbeat found the
        primary dead or fenced."""
        self.detector.record_miss()

    def _miss_and_maybe_fail_over(self) -> None:
        """A miss seen off the write path: promote if the detector now
        says so; with no promotable replica the shard stays down."""
        self._miss()
        if self.detector.down:
            try:
                self._failover()
            except DegradedServiceError:
                pass

    def probe(self) -> Dict[str, Any]:
        """One heartbeat: update the detector, fail over if warranted."""
        with self._mutex:
            self._checkpoint("probe")
            if self._primary_down():
                self._miss_and_maybe_fail_over()
            else:
                self.detector.record_ok()
            return self.health()

    def _failover(self) -> None:
        """Promote the most-caught-up live replica; fence the old primary.

        Every live replica holding the longest received prefix is tried
        in :meth:`_promotable` order; the first whose drain empties its
        inbox is promoted (one with an acked record still inboxed is
        not: the stream would be cut to what it applied). The promoted
        stack materializes the views the old primary had before it
        serves — replicas keep no cache while they follow.

        Caller holds the mutex. Raises
        :class:`~repro.errors.PrimaryDownError` when no replica can be
        promoted (all dead or divergent, or no drain went through,
        chained to the first apply error) — the shard is then down.
        """
        self.failing_over = True
        try:
            self._checkpoint("pre_promote")
            old = self.primary
            old.fenced = True
            candidates = self._promotable()
            if not candidates:
                raise PrimaryDownError(
                    f"shard {self.shard_id}: primary is down and no live "
                    f"replica can be promoted"
                )
            chosen, failure = None, None
            for candidate in candidates:
                if candidate.received_count < candidates[0].received_count:
                    break  # never promote a shorter prefix
                candidate.drain()  # replay the journal tail before serving
                if candidate.received_count == candidate.applied_count:
                    chosen = candidate
                    break
                failure = failure or candidate.apply_error
            if chosen is None:
                raise PrimaryDownError(
                    f"shard {self.shard_id}: primary is down and no fully "
                    f"received replica could apply its inbox"
                ) from failure
            for name in old.penguin.materialized_names:
                chosen.serving.materialize(name)
            self._checkpoint("post_drain")
            self.epoch += 1
            chosen.epoch = self.epoch
            promoted_prefix = chosen.applied_count
            self._replicas.remove(chosen)
            del self._links[chosen.name]
            self.primary = chosen
            # Every surviving replica holds a prefix of the promoted
            # prefix (the chosen had the maximum), so truncating the
            # stream and clamping cursors keeps positions dense.
            self._stream = self._stream[:promoted_prefix]
            for replica in self._replicas:
                link = self._links[replica.name]
                link.cursor = min(link.cursor, replica.received_count)
                if link.reachable:  # a wedged one learns it from a ship
                    replica.epoch = self.epoch
            self._cursor = ShippingCursor(chosen.audit)
            self.detector.reset()
            self.failovers += 1
            self._update_lag_metrics()
            obs.anomaly(
                "failover",
                shard=self.shard_id,
                promoted=chosen.name,
                fenced=old.name,
                epoch=self.epoch,
            )
            self._checkpoint("post_promote")
        finally:
            self.failing_over = False

    # -- reads ---------------------------------------------------------------

    def get_served(self, name: str, key: Sequence[Any]) -> ServedRead:
        return self._served("get_served", name, key)

    def query_served(
        self, name: str, text: Optional[str] = None
    ) -> ServedRead:
        return self._served("query_served", name, text)

    def _served(self, read: str, name: str, argument: Any) -> ServedRead:
        """The primary's answer; when it is dead or degraded, the
        most-caught-up live replica's, marked stale."""
        primary = self._live_primary()
        if primary is not None:
            try:
                return getattr(primary.serving, read)(name, argument)
            except DegradedServiceError:
                pass
        for replica in self._promotable():
            try:
                replica.drain()
                served = getattr(replica.serving, read)(name, argument)
            except DegradedServiceError:
                continue
            served.stale = True
            served.source = f"replica:{replica.name}"
            return served
        raise DegradedServiceError(
            f"shard {self.shard_id}: primary is unavailable and no "
            f"replica can serve {name!r}"
        )

    def _live_primary(self) -> Optional[ReplicaStack]:
        """The primary if it can serve; None routes to a replica.

        A read against a dead primary feeds the failure detector too,
        so a read-only workload still converges on failover.
        """
        if self.failing_over:
            raise FailoverInProgressError(
                f"shard {self.shard_id}: failover in progress; retry"
            )
        if not self._primary_down():
            return self.primary
        with self._mutex:
            if self._primary_down():
                self._miss_and_maybe_fail_over()
            if self._primary_down():
                return None
            return self.primary

    # -- observability -------------------------------------------------------

    def _update_lag_metrics(self) -> None:
        registry = obs.metrics()
        for replica in self._replicas:
            registry.gauge(
                "replication_lag",
                shard=str(self.shard_id),
                replica=replica.name,
            ).set(self.lag(replica))

    def health(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "primary": self.primary.name,
            "primary_up": not self._primary_down(),
            "failing_over": self.failing_over,
            "failovers": self.failovers,
            "missed_probes": self.detector.misses,
            "stream": len(self._stream),
            "quorum": self.config.QUORUM,
            "replicas": [
                {
                    "name": replica.name,
                    "received": replica.received_count,
                    "applied": replica.applied_count,
                    "lag": self.lag(replica),
                    "killed": replica.killed,
                    "divergent": replica.divergent,
                    "link_wedged": self._links[replica.name].wedged,
                }
                for replica in self._replicas
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaSet(shard={self.shard_id}, epoch={self.epoch}, "
            f"primary={self.primary.name!r}, "
            f"replicas={[r.name for r in self._replicas]})"
        )
