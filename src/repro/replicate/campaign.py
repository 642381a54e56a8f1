"""Seeded chaos-failover campaign: kill primaries, lose nothing.

``python -m repro chaos-failover --seed 0`` runs four legs against a
replicated :class:`~repro.shard.sharded.ShardedPenguin` and checks the
replication layer's invariants after each:

1. **Kill sweep** — the primary (or, in the promotion stages, the
   leading replica) is killed at every shipping and promotion
   checkpoint (:data:`~repro.replicate.replicaset.CHECKPOINT_STAGES`)
   while a seeded write stream runs. After the dust settles, every
   *acked* write must be readable with the exact content written, the
   promoted stack's audit replay must match its live state (the
   single-Penguin oracle), structural integrity must be clean, and
   every surviving replica must be byte-identical to its new primary.
2. **Concurrent load** — writer threads hammer inserts while a chaos
   controller kills shard primaries mid-load; same invariants, plus
   no writer may observe a torn result.
3. **Quorum & fencing** — the revert path (links wedged between commit
   and ship: the write must be rolled back everywhere and refused),
   the fail-fast path (all links wedged: refused before the primary
   commits), zombie fencing (a fenced epoch's late ship is rejected),
   and flaky-link backlog catch-up.
4. **Cross-shard** — a replicated cross-shard pivot re-homing commits
   on every participant's quorum and converges all replicas; with a
   participant's links wedged the transaction aborts untorn.

Unacked writes (the client saw an error) may legitimately be present
*or* absent afterwards — at-least-once ambiguity — but acked writes
must never be lost and no state may ever be torn.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import CampaignReport
from repro.errors import (
    DegradedServiceError,
    FailoverInProgressError,
    FencedWriteError,
    PrimaryDownError,
    ReplicationQuorumError,
    ReproError,
)
from repro.obs.history import divergence, snapshot
from repro.replicate.link import ShippingLink
from repro.replicate.replicaset import ReplicationConfig
from repro.shard import ShardedPenguin
from repro.workloads.hospital import hospital_session, new_chart

__all__ = [
    "FailoverReport",
    "run_failover_campaign",
    "run_kill_sweep",
    "run_concurrent_load",
    "run_quorum_and_fencing",
    "run_cross_shard",
]

OBJECT_NAME = "patient_chart"

#: Checkpoints where the *primary* dies mid-write.
WRITE_STAGES = ("pre_apply", "post_apply", "pre_ship", "post_ship")
#: Checkpoints where the *promotion target* dies mid-failover.
PROMOTION_STAGES = ("pre_promote", "post_drain", "post_promote")


class FailoverReport(CampaignReport):
    """Aggregated results of one chaos-failover campaign."""

    title = "chaos-failover campaign"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.kill_points = 0
        self.kills_injected = 0
        self.failovers = 0
        self.acked_writes = 0
        self.unacked_writes = 0
        self.lost_writes = 0
        self.torn_states = 0
        self.reverted_writes = 0
        self.refused_writes = 0
        self.fenced_ships = 0
        self.stale_reads = 0
        self.flaky_faults = 0
        self.oracle_replays = 0

    def legs(self) -> List[str]:
        return [
            f"  kill sweep       : {self.kill_points} kill points, "
            f"{self.kills_injected} kills injected, "
            f"{self.failovers} failovers",
            f"  writes           : {self.acked_writes} acked, "
            f"{self.unacked_writes} unacked, "
            f"{self.lost_writes} LOST, {self.torn_states} torn",
            f"  quorum           : {self.reverted_writes} reverted, "
            f"{self.refused_writes} refused fast, "
            f"{self.fenced_ships} zombie ships fenced",
            f"  degraded reads   : {self.stale_reads} served stale "
            f"from replicas",
            f"  flaky shipping   : {self.flaky_faults} link faults "
            f"absorbed by backlog re-ship",
            f"  oracle           : {self.oracle_replays} audit replays "
            f"matched live state",
        ]


# ---------------------------------------------------------------------------
# Workload plumbing
# ---------------------------------------------------------------------------


def _chart(pid: int, label: str) -> Dict[str, Any]:
    return new_chart(pid, label, 1960 + (pid % 40), "failover")


def _build(
    patients: int = 4,
    miss_threshold: int = 3,
    apply_inline: bool = True,
) -> ShardedPenguin:
    return hospital_session(
        patients,
        shards=2,
        replication=ReplicationConfig(
            replicas=2,
            quorum=1,
            miss_threshold=miss_threshold,
            apply_inline=apply_inline,
        ),
    )


def _insert_with_retry(
    sharded: ShardedPenguin,
    chart: Dict[str, Any],
    attempts: int = 12,
) -> bool:
    """One client write with realistic retries.

    Returns True iff the write was *acked* — either the insert
    succeeded, or a retry hit a duplicate key and the chart is readable
    (the first attempt landed before the primary died: at-least-once).
    """
    key = (chart["patient_id"],)
    for _ in range(attempts):
        try:
            sharded.insert(OBJECT_NAME, chart)
            return True
        except (
            PrimaryDownError,
            FailoverInProgressError,
            ReplicationQuorumError,
        ):
            continue
        except ReproError:
            try:
                if sharded.get(OBJECT_NAME, key) is not None:
                    return True
            except ReproError:
                pass
            return False
    return False


def _read_chart(
    sharded: ShardedPenguin, key: Tuple[Any, ...], attempts: int = 12
) -> Optional[Dict[str, Any]]:
    for _ in range(attempts):
        try:
            instance = sharded.get(OBJECT_NAME, key)
        except (FailoverInProgressError, DegradedServiceError):
            continue
        return None if instance is None else instance.to_dict()
    return None


def _verify_acked(
    report: FailoverReport,
    sharded: ShardedPenguin,
    acked: Dict[Tuple[Any, ...], str],
    context: str,
) -> None:
    """Every acked write must be readable with the content written."""
    for key, label in sorted(acked.items()):
        chart = _read_chart(sharded, key)
        if chart is None:
            report.lost_writes += 1
            report.fail(f"{context}: acked write {key} LOST")
        elif chart["name"] != label:
            report.torn_states += 1
            report.fail(
                f"{context}: acked write {key} torn — read "
                f"{chart['name']!r}, wrote {label!r}"
            )


def _verify_converged(
    report: FailoverReport,
    sharded: ShardedPenguin,
    context: str,
    oracle: bool = True,
) -> None:
    """Integrity, replica convergence, lag, and the audit-replay oracle.

    ``oracle=False`` skips the per-shard audit replay: a cross-shard
    transaction audits the *full* coalesced plan on the owner shard, so
    that shard's trail legitimately explains more than its own engine —
    the cross-shard leg verifies state equality directly instead.
    """
    violations = sharded.check_integrity()
    report.require(
        not violations,
        f"{context}: {len(violations)} structural integrity violations",
    )
    for shard in sharded.shards:
        replica_set = shard.replica_set
        replica_set.catch_up()
        for replica in replica_set.replicas:
            if replica.killed:
                continue
            if replica.divergent:
                report.fail(
                    f"{context}: shard {shard.shard_id} replica "
                    f"{replica.name} marked divergent: {replica.apply_error}"
                )
                continue
            differing = divergence(shard.engine, replica.engine)
            report.require(
                not differing,
                f"{context}: shard {shard.shard_id} replica {replica.name} "
                f"not byte-identical ({len(differing)} cells, first: "
                f"{differing[:1]})",
            )
            report.require(
                replica_set.lag(replica) == 0,
                f"{context}: shard {shard.shard_id} replica {replica.name} "
                f"lag stuck at {replica_set.lag(replica)}",
            )
        if oracle:
            replay = shard.penguin.replay_audit()
            report.oracle_replays += 1
            report.require(
                replay.ok,
                f"{context}: shard {shard.shard_id} audit replay diverged "
                f"from live state (oracle violation)",
            )


# ---------------------------------------------------------------------------
# Leg 1: kill sweep over every checkpoint
# ---------------------------------------------------------------------------


def _arm_kill(
    sharded: ShardedPenguin, stage: str, after_hits: int
) -> Dict[str, Any]:
    """Install a one-shot failpoint killing the right stack at ``stage``.

    Write-path stages kill the shard's *primary* mid-write; promotion
    stages kill the most-caught-up replica (the promotion target)
    mid-failover, forcing the failover to re-route or re-run.
    """
    state = {"hits": 0, "armed": True, "killed": None}

    def hook(hit_stage: str, shard_id: int) -> None:
        if not state["armed"] or hit_stage != stage:
            return
        state["hits"] += 1
        if state["hits"] < after_hits:
            return
        state["armed"] = False
        replica_set = sharded.shard(shard_id).replica_set
        if stage in PROMOTION_STAGES and stage != "post_promote":
            live = [r for r in replica_set.replicas if not r.killed]
            if not live:
                return
            target = max(live, key=lambda r: (r.received_count, r.name))
        else:
            target = replica_set.primary
        target.kill()
        state["killed"] = f"shard {shard_id} {target.name}"

    for shard in sharded.shards:
        shard.replica_set.failpoint = hook
    return state


def run_kill_sweep(
    report: FailoverReport,
    seed: int = 0,
    patients: int = 4,
    writes: int = 8,
) -> FailoverReport:
    """Kill the primary at every checkpoint stage during a write stream."""
    for stage in WRITE_STAGES:
        sharded = _build(patients=patients)
        trigger = 3 + (seed % 3)
        state = _arm_kill(sharded, stage, trigger)
        report.kill_points += 1
        acked: Dict[Tuple[Any, ...], str] = {}
        for i in range(writes):
            label = f"sweep {stage} {i}"
            chart = _chart(70_000 + i, label)
            if _insert_with_retry(sharded, chart):
                acked[(chart["patient_id"],)] = label
                report.acked_writes += 1
            else:
                report.unacked_writes += 1
        if state["killed"] is not None:
            report.kills_injected += 1
        _verify_acked(report, sharded, acked, f"kill sweep {stage}")
        _verify_converged(report, sharded, f"kill sweep {stage}")
        report.failovers += sum(
            shard.replica_set.failovers for shard in sharded.shards
        )
        sharded.close()

    # Promotion-stage kills: down the primary first, then kill the
    # promotion target while the failover itself is running.
    for stage in PROMOTION_STAGES:
        sharded = _build(patients=patients)
        acked = {}
        for i in range(writes // 2):
            label = f"promote {stage} {i}"
            chart = _chart(71_000 + i, label)
            if _insert_with_retry(sharded, chart):
                acked[(chart["patient_id"],)] = label
                report.acked_writes += 1
        victim_shard = sharded.shard(seed % sharded.num_shards)
        state = _arm_kill(sharded, stage, 1)
        victim_shard.replica_set.primary.kill()
        report.kill_points += 1
        for i in range(writes // 2, writes):
            label = f"promote {stage} {i}"
            chart = _chart(71_000 + i, label)
            if _insert_with_retry(sharded, chart):
                acked[(chart["patient_id"],)] = label
                report.acked_writes += 1
            else:
                report.unacked_writes += 1
        if state["killed"] is not None:
            report.kills_injected += 1
        _verify_acked(report, sharded, acked, f"promotion kill {stage}")
        _verify_converged(report, sharded, f"promotion kill {stage}")
        report.failovers += sum(
            shard.replica_set.failovers for shard in sharded.shards
        )
        sharded.close()
    return report


# ---------------------------------------------------------------------------
# Leg 2: concurrent load with mid-load primary kills
# ---------------------------------------------------------------------------


def run_concurrent_load(
    report: FailoverReport,
    seed: int = 0,
    patients: int = 4,
    writers: int = 4,
    writes_per_writer: int = 8,
) -> FailoverReport:
    """Writer threads vs. a chaos controller killing primaries mid-load."""
    sharded = _build(patients=patients, apply_inline=False)
    acked: Dict[Tuple[Any, ...], str] = {}
    acked_lock = threading.Lock()
    total = writers * writes_per_writer

    def writer(index: int) -> None:
        for i in range(writes_per_writer):
            pid = 72_000 + index * 1_000 + i
            label = f"concurrent {index}.{i}"
            chart = _chart(pid, label)
            if _insert_with_retry(sharded, chart, attempts=20):
                with acked_lock:
                    acked[(pid,)] = label
                    report.acked_writes += 1
            else:
                with acked_lock:
                    report.unacked_writes += 1

    threads = [
        threading.Thread(target=writer, args=(index,), daemon=True)
        for index in range(writers)
    ]
    for thread in threads:
        thread.start()

    # Kill each shard's primary once the load is genuinely mid-flight.
    kill_order = sorted(
        range(sharded.num_shards), key=lambda s: (s + seed) % sharded.num_shards
    )
    killed = 0
    deadline = time.monotonic() + 10.0
    for shard_id in kill_order:
        threshold = (killed + 1) * total // (sharded.num_shards + 1)
        while time.monotonic() < deadline:
            with acked_lock:
                done = report.acked_writes + report.unacked_writes
            if done >= threshold:
                break
            time.sleep(0.001)
        sharded.shard(shard_id).replica_set.primary.kill()
        report.kill_points += 1
        report.kills_injected += 1
        killed += 1
    for thread in threads:
        thread.join(timeout=10.0)
    report.require(
        not any(thread.is_alive() for thread in threads),
        "concurrent load: a writer thread wedged",
    )

    _verify_acked(report, sharded, acked, "concurrent load")
    _verify_converged(report, sharded, "concurrent load")
    report.failovers += sum(
        shard.replica_set.failovers for shard in sharded.shards
    )
    report.require(
        all(shard.replica_set.failovers >= 1 for shard in sharded.shards),
        "concurrent load: a killed shard never failed over",
    )
    sharded.close()
    return report


# ---------------------------------------------------------------------------
# Leg 3: quorum refusal, revert, fencing, stale reads, flaky links
# ---------------------------------------------------------------------------


def run_quorum_and_fencing(
    report: FailoverReport, seed: int = 0, patients: int = 4
) -> FailoverReport:
    """The quorum, fencing, stale-read, and flaky-link invariants."""
    # -- revert path: links die between primary commit and ship ------------
    sharded = _build(patients=patients)
    shard = sharded.shard(0)
    replica_set = shard.replica_set

    def wedge_all(stage: str, shard_id: int) -> None:
        if stage == "post_apply" and shard_id == 0:
            for replica in replica_set.replicas:
                replica_set.link(replica.name).wedge()

    replica_set.failpoint = wedge_all
    before = snapshot(shard.engine)
    chart = _chart(73_000, "must revert")
    owner = sharded.router.shard_of((73_000,))
    if owner != 0:  # route the probe chart to the wedged shard
        chart = _chart(73_000 + 1, "must revert")
        while sharded.router.shard_of((chart["patient_id"],)) != 0:
            chart["patient_id"] += 1
            chart["VISIT"][0]["patient_id"] = chart["patient_id"]
    try:
        sharded.insert(OBJECT_NAME, chart)
        report.fail("revert: write acked without reaching quorum")
    except ReplicationQuorumError:
        report.reverted_writes += 1
    replica_set.failpoint = None
    report.require(
        snapshot(shard.engine) == before,
        "revert: primary state changed after a quorum-failed write",
    )
    tail = shard.penguin.audit.records()[-1]
    report.require(
        tail.state == "rolled_back",
        f"revert: audit tail is {tail.state!r}, expected 'rolled_back'",
    )
    # Heal and prove the shard still works, replicas untorn.
    for replica in replica_set.replicas:
        replica_set.link(replica.name).heal()
    report.require(
        _insert_with_retry(sharded, _chart(73_100, "after heal")),
        "revert: write refused after links healed",
    )
    _verify_converged(report, sharded, "revert")

    # -- fail-fast path: wedged links refuse before the primary commits ----
    for replica in replica_set.replicas:
        replica_set.link(replica.name).wedge()
    before = snapshot(shard.engine)
    probe = _chart(chart["patient_id"] + 50, "must refuse")
    while sharded.router.shard_of((probe["patient_id"],)) != 0:
        probe["patient_id"] += 1
        probe["VISIT"][0]["patient_id"] = probe["patient_id"]
    try:
        sharded.insert(OBJECT_NAME, probe)
        report.fail("fail-fast: write acked with every link wedged")
    except ReplicationQuorumError:
        report.refused_writes += 1
    report.require(
        snapshot(shard.engine) == before,
        "fail-fast: refused write touched the primary",
    )
    for replica in replica_set.replicas:
        replica_set.link(replica.name).heal()
    sharded.close()

    # -- stale reads + zombie fencing --------------------------------------
    sharded = _build(patients=patients, miss_threshold=10)
    shard = sharded.shard(0)
    replica_set = shard.replica_set
    label = "stale witness"
    witness = _chart(74_000, label)
    while sharded.router.shard_of((witness["patient_id"],)) != 0:
        witness["patient_id"] += 1
        witness["VISIT"][0]["patient_id"] = witness["patient_id"]
    _insert_with_retry(sharded, witness)
    old_primary = replica_set.primary
    old_epoch = replica_set.epoch
    old_primary.kill()
    # The detector threshold is high, so reads fall through to replicas.
    for _ in range(3):
        served = sharded.get_served(OBJECT_NAME, (witness["patient_id"],))
        report.require(
            served.stale and str(served.source).startswith("replica:"),
            f"stale reads: expected a marked replica read, got "
            f"stale={served.stale} source={served.source!r}",
        )
        report.require(
            served.value is not None
            and served.value.to_dict()["name"] == label,
            "stale reads: replica served wrong content",
        )
        report.stale_reads += 1
    # Force the failover, then replay the zombie's ship at the old epoch.
    probe = _chart(74_500, "post failover")
    while sharded.router.shard_of((probe["patient_id"],)) != 0:
        probe["patient_id"] += 1
        probe["VISIT"][0]["patient_id"] = probe["patient_id"]
    attempts = 0
    while replica_set.failovers == 0 and attempts < 50:
        attempts += 1
        try:
            sharded.insert(OBJECT_NAME, probe)
        except ReproError:
            continue
    report.require(
        replica_set.failovers > 0,
        "fencing: the dead primary never failed over under write load",
    )
    report.failovers += replica_set.failovers
    survivor = replica_set.replicas[0]
    zombie_link = ShippingLink(survivor)
    zombie_link.cursor = survivor.received_count
    try:
        zombie_link.send(
            old_epoch,
            survivor.received_count + 1,
            replica_set._stream[-1],
        )
        report.fail("fencing: a zombie primary's late ship was accepted")
    except FencedWriteError:
        report.fenced_ships += 1
    report.require(
        survivor.fenced_ships >= 1,
        "fencing: the survivor did not count the fenced ship",
    )
    sharded.close()

    # -- flaky links: transient ship faults absorbed by backlog re-ship ----
    from repro.relational.faults import FaultHook, FaultPlan

    sharded = _build(patients=patients)
    shard = sharded.shard(0)
    replica_set = shard.replica_set
    flaky = replica_set.link(replica_set.replicas[0].name)
    flaky.hook = FaultHook(FaultPlan(seed).transient_rate(0.4, ("ship",)))
    for i in range(10):
        label = f"flaky {i}"
        chart = _chart(75_000 + i, label)
        report.require(
            _insert_with_retry(sharded, chart),
            f"flaky links: write {i} refused despite a healthy quorum peer",
        )
        report.acked_writes += 1
    report.flaky_faults += flaky.hook.injected["transient"]
    report.require(
        flaky.hook.injected["transient"] > 0,
        "flaky links: the fault plan never fired",
    )
    flaky.hook = FaultHook(None)
    _verify_converged(report, sharded, "flaky links")
    sharded.close()
    return report


# ---------------------------------------------------------------------------
# Leg 4: replicated cross-shard transactions
# ---------------------------------------------------------------------------


def run_cross_shard(
    report: FailoverReport, seed: int = 0, patients: int = 4
) -> FailoverReport:
    """2PC commits on every participant's quorum — or aborts untorn."""
    sharded = _build(patients=patients)
    router = sharded.router
    pids = sorted(row[0] for row in sharded.all_rows("PATIENT"))
    old_pid = pids[seed % len(pids)]
    new_pid = next(
        candidate
        for candidate in range(80_000, 80_100)
        if router.shard_of((candidate,)) != router.shard_of((old_pid,))
    )

    def rehome(node: Dict[str, Any], pid: int) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key, value in node.items():
            if key == "patient_id":
                out[key] = pid
            elif isinstance(value, list):
                out[key] = [rehome(child, pid) for child in value]
            else:
                out[key] = value
        return out

    moved = rehome(sharded.get(OBJECT_NAME, (old_pid,)).to_dict(), new_pid)
    sharded.replace(OBJECT_NAME, (old_pid,), moved)
    report.acked_writes += 1
    chart = _read_chart(sharded, (new_pid,))
    report.require(
        chart is not None and _read_chart(sharded, (old_pid,)) is None,
        "cross-shard: re-homed chart not moved",
    )
    _verify_converged(report, sharded, "cross-shard commit", oracle=False)

    # Wedge the *other* participant's links: the transaction must abort
    # before any commit marker, leaving both shards untouched.
    victim_pid = next(p for p in pids if p != old_pid)
    target_pid = next(
        candidate
        for candidate in range(81_000, 81_100)
        if router.shard_of((candidate,)) != router.shard_of((victim_pid,))
    )
    target_shard = sharded.shard(router.shard_of((target_pid,)))
    for replica in target_shard.replica_set.replicas:
        target_shard.replica_set.link(replica.name).wedge()
    states = [snapshot(s.engine) for s in sharded.shards]
    moved = rehome(
        sharded.get(OBJECT_NAME, (victim_pid,)).to_dict(), target_pid
    )
    try:
        sharded.replace(OBJECT_NAME, (victim_pid,), moved)
        report.fail("cross-shard: committed with a participant quorum down")
    except ReplicationQuorumError:
        report.refused_writes += 1
    report.require(
        [snapshot(s.engine) for s in sharded.shards] == states,
        "cross-shard: aborted transaction left a torn participant",
    )
    for replica in target_shard.replica_set.replicas:
        target_shard.replica_set.link(replica.name).heal()
    _verify_converged(report, sharded, "cross-shard fail-fast", oracle=False)

    # Mid-transaction quorum loss: the pre-check passes, then the
    # participant's links die during shipping. The 2PC must abort
    # inline — every participant reverted, no commit markers.
    target_rs = target_shard.replica_set

    def wedge_mid_ship(stage: str, shard_id: int) -> None:
        if stage == "pre_ship":
            for replica in target_rs.replicas:
                target_rs.link(replica.name).wedge()

    target_rs.failpoint = wedge_mid_ship
    states = [snapshot(s.engine) for s in sharded.shards]
    moved = rehome(
        sharded.get(OBJECT_NAME, (victim_pid,)).to_dict(), target_pid
    )
    try:
        sharded.replace(OBJECT_NAME, (victim_pid,), moved)
        report.fail("cross-shard: committed despite a mid-ship quorum loss")
    except ReplicationQuorumError:
        report.reverted_writes += 1
    target_rs.failpoint = None
    for replica in target_rs.replicas:
        target_rs.link(replica.name).heal()
    report.require(
        [snapshot(s.engine) for s in sharded.shards] == states,
        "cross-shard: mid-ship abort left a torn participant",
    )
    _verify_converged(report, sharded, "cross-shard mid-ship abort", oracle=False)
    sharded.close()
    return report


# ---------------------------------------------------------------------------
# The full campaign
# ---------------------------------------------------------------------------


def run_failover_campaign(
    seed: int = 0, patients: int = 4, writes: int = 8
) -> FailoverReport:
    """All four legs; returns the aggregated report (``report.ok``)."""
    report = FailoverReport(seed)
    run_kill_sweep(report, seed=seed, patients=patients, writes=writes)
    run_concurrent_load(report, seed=seed, patients=patients)
    run_quorum_and_fencing(report, seed=seed, patients=patients)
    run_cross_shard(report, seed=seed, patients=patients)
    return report
