"""The sharded facade: one logical Penguin over N partitioned engines.

:class:`ShardedPenguin` presents the same view-object surface as
:class:`~repro.penguin.Penguin`, backed by ``num_shards`` independent
engine instances. Each shard is a full serving stack of its own — a
:class:`~repro.serve.concurrent.ConcurrentPenguin` with its own plan
journal, circuit breaker, audit log, and materialized caches — so a
shard can fail, degrade, and recover independently.

Placement follows the paper's structure (see
:mod:`repro.shard.router`): island relations carry the pivot key in
their primary keys and are partitioned by it; referenced lookups are
replicated to every shard. A view-object update therefore translates
entirely on the shard that owns its pivot key — translation runs
side-effect-free there (:meth:`Translator.explain_batch`), its plan is
partitioned, and:

* a plan confined to one shard takes the **fast path**: journaled,
  audited, breaker-guarded apply on that shard alone;
* a plan spanning shards (a peninsula fix touching a replicated
  relation, a replacement re-homing the pivot key) goes through the
  **two-phase coordinator** (:mod:`repro.shard.twophase`), which holds
  the write locks of every participant and leaves each shard's journal
  able to finish the transaction after a crash.

Either way the write is admitted first — once, before its translate
half, by its owner's write guard (``Shard.front.admitted``: breaker,
the shard's writer serialiser, outcome report) — and holds the guard to
its commit, so the plan lands on the state it was translated against.
Coordination between the two paths uses a second readers-writer lock:
fast-path writes on *different* shards share it and run concurrently;
a cross-shard transaction (and a query-driven verb, from its select to
its commit) takes it exclusively, so it can never interleave with a
fast-path write on one of its participants. Lock order: coordinator →
guard (a replica set's ``_mutex``, then its primary's) → the shard's
readers-writer lock; several guards only under the exclusive mode, in
shard-id order.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.core.instance import Instance
from repro.core.instantiation import object_key
from repro.core.updates.operations import UpdateRequest
from repro.materialize.maintainer import LAZY
from repro.obs.audit import AuditLog, MemoryAuditLog
from repro.obs.context import current_trace_id
from repro.penguin import Penguin, ViewObjectSession
from repro.relational.engine import Engine
from repro.relational.faults import FaultHook
from repro.relational.journal import (
    COMMITTED,
    Images,
    MemoryJournal,
    PlanJournal,
    UpdateRecord,
    encode_images,
    encode_plan,
)
from repro.relational.operations import UpdatePlan
from repro.replicate import ReplicaSet, ReplicaStack, ReplicationConfig
from repro.serve.concurrent import ConcurrentPenguin, ServedRead
from repro.serve.locks import ReadWriteLock
from repro.shard.router import HashRouter, Placement, Router, partition_plan
from repro.shard.twophase import recover_two_phase, two_phase_apply
from repro.structural.schema_graph import StructuralSchema

__all__ = ["ShardedPenguin", "sharded_loader"]


def _count_update(outcome: str, shard_id: int) -> None:
    obs.metrics().counter(
        "shard_updates_total", outcome=outcome, shard=str(shard_id)
    ).inc()


class Shard:
    """One shard: a serving facade plus its id, as seen by the router.

    With replication attached (:attr:`replica_set` non-None), every
    accessor resolves through the set's *current primary* — after a
    failover the promoted replica's stack is what ``serving``,
    ``engine``, ``journal``, and ``lock`` return, so routing follows
    the promotion with no re-wiring anywhere else.
    """

    def __init__(
        self,
        shard_id: int,
        serving: ConcurrentPenguin,
        replica_set: Optional[ReplicaSet] = None,
    ) -> None:
        self.shard_id = shard_id
        self._serving = serving
        self.replica_set = replica_set

    @property
    def serving(self) -> ConcurrentPenguin:
        if self.replica_set is not None:
            return self.replica_set.primary.serving
        return self._serving

    @property
    def penguin(self) -> Penguin:
        return self.serving.penguin

    @property
    def engine(self) -> Engine:
        return self.serving.penguin.engine

    @property
    def journal(self) -> PlanJournal:
        return self.serving.penguin.journal

    @property
    def lock(self) -> ReadWriteLock:
        return self.serving.lock

    # -- replication-aware routing ------------------------------------------

    @property
    def replicas(self) -> List[ReplicaStack]:
        return [] if self.replica_set is None else self.replica_set.replicas

    def each_serving(self):
        """The primary's facade, then every replica's (definition fan-out)."""
        yield self.serving
        for replica in self.replicas:
            yield replica.serving

    def seed_engines(self) -> List[Engine]:
        """Every engine that must hold this shard's seed data."""
        return [self.engine] + [replica.engine for replica in self.replicas]

    @property
    def front(self) -> Union[ReplicaSet, ConcurrentPenguin]:
        """What a routed request talks to: the replica set when there is
        one (quorum-replicated ``apply_plan``, replica fallback for
        ``get_served`` / ``query_served``), else the facade itself —
        those three and the write guard, ``admitted``, have one
        signature on both."""
        if self.replica_set is not None:
            return self.replica_set
        return self._serving

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard({self.shard_id}, {self.serving!r})"


class ShardedRecovery:
    """Combined startup-recovery outcome: 2PC pass + per-shard passes."""

    def __init__(self, two_phase, shards: Dict[int, Any]) -> None:
        self.two_phase = two_phase
        self.shards = shards

    @property
    def clean(self) -> bool:
        return self.two_phase.clean

    def as_dict(self) -> Dict[str, Any]:
        return {
            "two_phase": self.two_phase.as_dict(),
            "shards": {
                shard_id: getattr(report, "as_dict", lambda: report)()
                for shard_id, report in self.shards.items()
            },
        }


class ShardedPenguin(ViewObjectSession):
    """Horizontal partitioning of one structural schema across N shards.

    Parameters
    ----------
    graph:
        The structural schema, installed identically on every shard.
    partition_by:
        The relation whose primary key partitions the data — normally
        the pivot of the workload's main view object. Relations whose
        keys contain all of its key attributes are partitioned;
        everything else is replicated.
    num_shards / router:
        Either a shard count (hash partitioning) or an explicit
        :class:`~repro.shard.router.Router`; the router's shard count
        wins when both are given.
    engines / journals / audits:
        Optional per-shard components, mainly for restart-after-crash
        scenarios where existing engines and journals are re-attached.
        Defaults: fresh memory engines, :class:`MemoryJournal` and
        :class:`MemoryAuditLog` per shard. Pass ``install=False`` when
        re-attaching engines that already have the schema.
    replication:
        A :class:`~repro.replicate.ReplicationConfig` attaches a
        :class:`~repro.replicate.ReplicaSet` to every shard: writes ack
        only after the configured quorum of replicas has durable
        receipt of the shipped plan, reads fall back to the
        most-caught-up replica (marked stale) when the primary is dead
        or degraded, and the failure detector promotes a replica
        automatically after ``miss_threshold`` missed probes. ``None``
        (the default) changes nothing. Replica stacks always use fresh
        memory engines.

    Startup always runs recovery — the cross-shard two-phase pass
    first, then each shard's standard journal recovery — and keeps the
    report as :attr:`recovery`.
    """

    def __init__(
        self,
        graph: StructuralSchema,
        partition_by: str,
        num_shards: int = 4,
        router: Optional[Router] = None,
        engines: Optional[Sequence[Engine]] = None,
        journals: Optional[Sequence[PlanJournal]] = None,
        audits: Optional[Sequence[AuditLog]] = None,
        install: Optional[bool] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        self.graph = graph
        self.placement = Placement(graph, partition_by)
        self.router = router or HashRouter(num_shards)
        self.num_shards = self.router.num_shards
        if install is None:
            install = engines is None
        for name, given in (
            ("engines", engines), ("journals", journals),
            ("audits", audits),
        ):
            if given is not None and len(given) != self.num_shards:
                raise ValueError(
                    f"{name} must have one entry per shard "
                    f"({len(given)} != {self.num_shards})"
                )
        self._shards: Dict[int, Shard] = {}
        for shard_id in range(self.num_shards):
            penguin = Penguin(
                graph,
                engine=engines[shard_id] if engines else None,
                install=install,
                audit=audits[shard_id] if audits else MemoryAuditLog(),
            )
            # Attached after construction so recovery is NOT run per
            # shard in isolation here — per-shard recovery would tear a
            # half-applied cross-shard transaction; recover() below
            # settles the 2PC entries globally first.
            penguin.journal = (
                journals[shard_id] if journals else MemoryJournal()
            )
            serving = ConcurrentPenguin(penguin)
            serving.metric_labels = {"shard": str(shard_id)}
            replica_set = None
            if replication is not None:
                replica_set = ReplicaSet(
                    shard_id, serving, graph, config=replication
                )
            self._shards[shard_id] = Shard(
                shard_id, serving, replica_set=replica_set
            )
        self.replication = replication
        # Fast-path writes (one shard) share this lock; a cross-shard
        # transaction takes it exclusively. Reads never touch it.
        self._coordinator = ReadWriteLock()
        self.failpoint = None
        self.recovery = self.recover()
        # A transaction id must not come back after a restart: recovery
        # groups the journals' two-phase entries by id, and a reused one
        # would adopt a settled transaction's COMMITTED marker and roll a
        # lone new intent forward. The journals' id counters only grow,
        # so their sum at startup names this process's transactions apart.
        boot = sum(len(shard.journal) for shard in self.shards)
        self._txn_ids = (f"txn{boot}.{n}" for n in itertools.count(1))

    # -- the fault surface ---------------------------------------------------

    @property
    def failpoint(self) -> Optional[FaultHook]:
        """The deployment's one fault hook, or None (the default: every
        yield point then costs one ``is not None`` test). Setting it
        hands the hook down to every replica set; the two-phase
        coordinator is passed it per transaction; this session itself
        ticks ``"translated"`` — a write's translate half is done, its
        plan has not landed — with ``shard=`` the owner."""
        return self._failpoint

    @failpoint.setter
    def failpoint(self, hook: Optional[FaultHook]) -> None:
        self._failpoint = hook
        for shard in self.shards:
            if shard.replica_set is not None:
                shard.replica_set.failpoint = hook

    @property
    def queued(self) -> int:
        """Operations waiting on the coordinator or on a shard's write
        guard behind the write that holds it."""
        return (
            self._coordinator.waiting_readers
            + self._coordinator.waiting_writers
            + sum(shard.front.queued for shard in self.shards)
        )

    # -- shard access --------------------------------------------------------

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return tuple(self._shards[i] for i in range(self.num_shards))

    def shard(self, shard_id: int) -> Shard:
        return self._shards[shard_id]

    def owner_of(self, name: str, key: Sequence[Any]) -> int:
        """The shard owning the instance with object key ``key``."""
        self.object(name)  # validates the object exists
        return self.router.shard_of(object_key(name, key))

    def describe(self) -> str:
        return f"{self.router.describe()} over {self.placement.describe()}"

    def object(self, name: str):
        return self._shards[0].penguin.object(name)

    # -- definition-time fan-out --------------------------------------------

    def _fan_out(self, method: str, *args: Any, **kwargs: Any) -> List[Any]:
        """Make a definition-time call on every stack (primaries first
        within each shard, then replicas); returns the primaries'
        results, one per shard."""
        results = []
        for shard in self.shards:
            for index, serving in enumerate(shard.each_serving()):
                result = getattr(serving, method)(*args, **kwargs)
                if index == 0:
                    results.append(result)
        return results

    def define_object(self, *args: Any, **kwargs: Any):
        """Define the object on every shard (and every replica stack);
        returns shard 0's definition."""
        return self._fan_out("define_object", *args, **kwargs)[0]

    def register_object(self, view_object) -> None:
        self._fan_out("register_object", view_object)

    def choose_translator(self, name: str, answers=None):
        """Run the dialog once per shard with identical answers, so every
        shard binds the same translator; returns shard 0's result."""
        return self._fan_out("choose_translator", name, answers)[0]

    def set_policy(self, name: str, policy):
        return self._fan_out("set_policy", name, policy)[0]

    def materialize(self, name: str, policy: str = LAZY):
        """Materialize on every shard's primary, one view per shard.

        Replica stacks keep no cache while they follow: a stale read
        from one assembles from its engine, and a promotion materializes
        the old primary's views on the promoted stack."""
        return [shard.serving.materialize(name, policy) for shard in self.shards]

    def dematerialize(self, name: str) -> None:
        for shard in self.shards:
            shard.serving.dematerialize(name)

    @property
    def object_names(self) -> Tuple[str, ...]:
        return self._shards[0].penguin.object_names

    def risk_summary(self):
        # Every shard binds the same objects with the same policy, so
        # shard 0's strategy risk is the deployment's.
        return self._shards[0].penguin.risk_summary()

    # -- base-data loading ---------------------------------------------------

    def seed_insert(
        self, relation: str, values: Union[Mapping[str, Any], Sequence[Any]]
    ) -> None:
        """Route one base-relation insert during initial data loading.

        Partitioned rows land on their owning shard; replicated rows
        land on every shard. Replica stacks receive every row their
        shard does, so replication starts from an identical baseline.
        This is the loading path only — steady state writes go through
        the view-object operations.
        """
        if self.placement.is_partitioned(relation):
            if isinstance(values, Mapping):
                routing = tuple(
                    values[attr] for attr in self.placement.partition_attrs
                )
            else:
                routing = self.placement.routing_key_of_values(
                    relation, values
                )
            targets = [self._shards[self.router.shard_of(routing)]]
        else:
            targets = list(self.shards)
        for shard in targets:
            for engine in shard.seed_engines():
                engine.insert(relation, values)

    def all_rows(self, relation: str) -> List[Tuple[Any, ...]]:
        """The logical contents of one relation, sorted.

        Partitioned relations are the disjoint union of the shards;
        replicated relations are read from shard 0 (the replicas are
        kept in lockstep — tests assert this invariant separately).
        """
        if self.placement.is_partitioned(relation):
            rows: List[Tuple[Any, ...]] = []
            for shard in self.shards:
                rows.extend(shard.engine.scan(relation))
            return sorted(rows, key=repr)
        return sorted(self._shards[0].engine.scan(relation), key=repr)

    def counts(self) -> Dict[str, int]:
        return {
            name: len(self.all_rows(name))
            for name in self.graph.relation_names
        }

    # -- reads ---------------------------------------------------------------

    def get(self, name: str, key: Sequence[Any]) -> Optional[Instance]:
        return self.get_served(name, key).value

    def get_served(self, name: str, key: Sequence[Any]) -> ServedRead:
        """One instance by object key, with serving metadata attached."""
        owner = self.owner_of(name, key)
        served = self._shards[owner].front.get_served(name, key)
        served.shard = owner
        return served

    def query(self, name: str, text: Optional[str] = None) -> List[Instance]:
        return self.query_served(name, text).value

    def query_served(
        self, name: str, text: Optional[str] = None
    ) -> ServedRead:
        """Scatter the query to every shard and merge, deterministically.

        Instances are rooted at pivot tuples, which are partitioned, so
        per-shard results are disjoint; the merge sorts by object key.
        The merged read is marked stale if *any* shard answered stale.
        """
        merged: List[Instance] = []
        stale = False
        staleness = None
        for shard in self.shards:
            served = shard.front.query_served(name, text)
            merged.extend(served.value)
            if served.stale:
                stale = True
                if served.staleness is not None:
                    staleness = max(staleness or 0, served.staleness)
        merged.sort(key=lambda instance: repr(instance.key))
        return ServedRead(
            value=merged,
            stale=stale,
            shard=None,
            staleness=staleness,
            object_name=name,
        )

    # -- writes (the verbs are ViewObjectSession's) --------------------------

    def _apply(
        self, name: str, requests: List[UpdateRequest], op: str
    ) -> UpdatePlan:
        """Group by owning shard; each group is translated and applied
        as one atomic plan there, groups for different shards
        are independent units."""
        groups: Dict[int, List[UpdateRequest]] = {}
        for request in requests:
            groups.setdefault(self._route_request(name, request), []).append(
                request
            )
        combined = UpdatePlan()
        for owner_id in sorted(groups):
            combined.extend(self._update(name, op, groups[owner_id], owner_id))
        return combined

    def _route_request(self, name: str, request: UpdateRequest) -> int:
        """The shard that must translate this request (its pivot owner)."""
        anchor = request.anchor
        if isinstance(anchor, (Instance, Mapping)):
            key = self.coerce(name, anchor).key
        else:  # a raw object key
            key = tuple(anchor)
        return self.router.shard_of(key)

    def _select_apply(
        self, name: str, query: str, request_of, op: str
    ) -> UpdatePlan:
        # The batch committed is the one selected: no other write, on any
        # shard, between a query-driven verb's select and its commit.
        with self._coordinator.write_locked():
            return super()._select_apply(name, query, request_of, op)

    def _update(
        self, name: str, op: str, requests: List[UpdateRequest], owner_id: int
    ) -> UpdatePlan:
        owner = self._shards[owner_id]
        # Fast path first: admitted by the owner, translated there and,
        # if the plan stays on a single shard, landed under the shared
        # coordinator mode — concurrent fast-path writes on other shards
        # proceed. A plan found to cross shards is admitted and
        # translated again under the exclusive mode (the guard cannot be
        # held while waiting for it, and the first translation may be
        # stale by then), admitted by every participant and handed to
        # the two-phase protocol.
        for exclusive in (False, True):
            coordinator = (
                self._coordinator.write_locked if exclusive
                else self._coordinator.read_locked
            )
            with coordinator(), self._admitted([owner_id], op, name):
                plan, split = self._translate_on(owner, name, op, requests)
                if self.failpoint is not None:
                    self.failpoint.tick("translated", shard=owner_id)
                # Local means *this* owner: a second shard's guard is
                # only ever taken under the exclusive mode.
                if set(split) <= {owner_id}:
                    return self._apply_local(
                        owner, name, op, plan, len(requests)
                    )
                if exclusive:
                    with self._admitted(split, op, name):
                        return self._apply_cross_shard(
                            owner, name, op, plan, split, len(requests)
                        )

    @contextlib.contextmanager
    def _admitted(self, shard_ids, op: str, name: str):
        """The write guard (``Shard.front.admitted``) of every listed
        shard, in id order: breaker, writer serialiser and — replicated
        — live primary and reachable quorum, each outcome reported to
        the shard that admitted. Re-entrant, so an owner that is also a
        participant is admitted once."""
        with contextlib.ExitStack() as guards:
            for shard_id in sorted(shard_ids):
                guards.enter_context(
                    self._shards[shard_id].front.admitted(op, name)
                )
            yield

    def _translate_on(
        self, owner: Shard, name: str, op: str, requests: List[UpdateRequest]
    ) -> Tuple[UpdatePlan, Dict[int, UpdatePlan]]:
        """The write's translate half on the owner shard — side-effect
        free over a buffer, a rejection counted and audited there as a
        single-engine session would — and the plan's split by
        placement. The caller holds the owner's guard, so nothing lands
        on this engine meanwhile and the shard's lock is not taken:
        readers wait only while the plan lands."""
        try:
            plan = owner.penguin.translator(name).explain_batch(
                owner.engine, requests, op=op
            ).plan
        except Exception:
            _count_update("rejected", owner.shard_id)
            raise
        return plan, partition_plan(plan, self.placement, self.router)

    def _apply_local(
        self, owner: Shard, name: str, op: str, plan: UpdatePlan, items: int
    ) -> UpdatePlan:
        # An empty plan is still applied (and audited) on the owner.
        result = owner.front.apply_plan(name, plan, op=op, items=items)
        _count_update("local", owner.shard_id)
        return result

    def _apply_cross_shard(
        self,
        owner: Shard,
        name: str,
        op: str,
        plan: UpdatePlan,
        split: Dict[int, UpdatePlan],
        items: int,
    ) -> UpdatePlan:
        # One transaction at a time: the coordinator is held exclusively.
        txn_id = next(self._txn_ids)
        translator = owner.penguin.translator(name)
        audit = owner.penguin.audit
        registry = obs.metrics()

        # With replication attached, each participant's replicas must
        # receive exactly that participant's sub-plan — shipped after
        # the apply phase, before the commit markers, so a quorum
        # failure aborts through the ordinary 2PC inline-abort path.
        post_apply = None
        if self.replication is not None:

            def post_apply(images_by_shard):
                shipped: List[int] = []
                try:
                    for sid in sorted(split):
                        # A fresh record per participant: each ships
                        # its own sub-plan, the owner audits the whole.
                        self._shards[sid].replica_set.ship_record(
                            UpdateRecord(
                                0, COMMITTED, encode_plan(split[sid]),
                                encode_images(images_by_shard[sid]),
                                op=op, label=name, items=items,
                                trace_id=current_trace_id(),
                            )
                        )
                        shipped.append(sid)
                except Exception:
                    for sid in shipped:
                        self._shards[sid].replica_set.retract_last()
                    raise

        try:
            images_by_shard = two_phase_apply(
                self._shards, split, txn_id, failpoint=self.failpoint,
                post_apply=post_apply,
            )
        except Exception as exc:
            registry.counter("translation_failures_total", op=op).inc()
            if audit is not None:
                translator.audit_update(
                    audit, op, plan=plan, items=items, error=exc
                )
            _count_update("aborted", owner.shard_id)
            raise
        # The owner's committed record: count the write as every other
        # commit step does (Translator._commit).
        registry.counter("translations_total", op=op).inc()
        registry.histogram("plan_ops", op=op).observe(len(plan))
        if audit is not None:
            # The images each participant journaled, in shard order
            # (replicated cells appear once per shard with identical
            # images, so the union is well defined).
            images: Images = {}
            for shard_images in images_by_shard.values():
                images.update(shard_images)
            asn = translator.audit_update(
                audit, op, plan=plan, images=images, items=items
            )
            if self.replication is not None:
                # The owner's replicas already got their sub-plan above;
                # the full-plan owner audit record must not ship too.
                owner.replica_set.skip_externally_shipped(asn)
        _count_update("cross_shard", owner.shard_id)
        return plan

    # -- recovery ------------------------------------------------------------

    def recover(self) -> ShardedRecovery:
        """Two-phase recovery first, then each shard's standard recovery.

        Idempotent; safe to call after a simulated crash left journals
        pending. The ordering is load-bearing — see
        :func:`repro.shard.twophase.recover_two_phase`.
        """
        two_phase = recover_two_phase(self._shards)
        shard_reports = {
            shard_id: shard.penguin.recover()
            for shard_id, shard in self._shards.items()
        }
        return ShardedRecovery(two_phase, shard_reports)

    # -- health & observability ---------------------------------------------

    def health(self) -> Dict[str, Any]:
        per_shard = {
            str(shard_id): shard.serving.health()
            for shard_id, shard in self._shards.items()
        }
        out = {
            "shards": per_shard,
            "num_shards": self.num_shards,
            "router": self.router.describe(),
            "degraded": [
                shard_id
                for shard_id, shard in self._shards.items()
                if shard.serving.breaker.degraded
            ],
        }
        if self.replication is not None:
            out["replication"] = {
                str(shard_id): shard.replica_set.health()
                for shard_id, shard in self._shards.items()
            }
        return out

    def close(self) -> None:
        """Releases nothing: replicas apply on receipt, so a sharded
        deployment holds no thread of its own."""

    def attach_flight_recorder(self, recorder) -> None:
        """Register every stack's audit tail as a bundle section and
        install the recorder on the active hub."""
        for shard_id, shard in self._shards.items():
            audit = shard.serving.penguin.audit
            if audit is not None:
                recorder.add_audit_source(f"audit/shard{shard_id}", audit)
            for replica in shard.replicas:
                if replica.audit is not None:
                    recorder.add_audit_source(
                        f"audit/shard{shard_id}/{replica.name}",
                        replica.audit,
                    )
        recorder.install()

    def cache_stats(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        return {
            str(shard_id): shard.serving.cache_stats()
            for shard_id, shard in self._shards.items()
        }

    def check_integrity(self) -> List[Any]:
        violations: List[Any] = []
        for shard in self.shards:
            violations.extend(shard.serving.check_integrity())
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedPenguin(shards={self.num_shards}, "
            f"partition_by={self.placement.partition_by!r})"
        )


class _ShardedLoaderAdapter:
    """Engine-shaped routing adapter for the ``populate_*`` generators.

    Exposes exactly the surface those generators use (``insert``,
    ``count``, ``has_relation``, ``relation_names``), routing each
    insert through :meth:`ShardedPenguin.seed_insert` — the same
    deterministic generator then fills a sharded deployment and a
    single engine with identical logical contents.
    """

    def __init__(self, sharded: ShardedPenguin) -> None:
        self._sharded = sharded

    def insert(
        self, relation: str, values: Union[Mapping[str, Any], Sequence[Any]]
    ) -> None:
        self._sharded.seed_insert(relation, values)

    def count(self, relation: str) -> int:
        return len(self._sharded.all_rows(relation))

    def has_relation(self, relation: str) -> bool:
        return self._sharded.shard(0).engine.has_relation(relation)

    def relation_names(self) -> Tuple[str, ...]:
        return self._sharded.shard(0).engine.relation_names()


def sharded_loader(sharded: ShardedPenguin) -> _ShardedLoaderAdapter:
    """An engine-shaped adapter: ``populate_hospital(sharded_loader(sp))``."""
    return _ShardedLoaderAdapter(sharded)
