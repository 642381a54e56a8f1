"""Seeded chaos campaign over the hospital workload.

``python -m repro chaos --seed 0 --ops 200`` runs three legs and
asserts the resilience layer's invariants after each:

1. **Crash sweep** — for every operation index *k* of several
   multi-relation patient-chart deletion plans, a
   :class:`~repro.relational.faults.SimulatedCrash` is injected at the
   *k*-th mutation while the plan is applied *non-atomically* under
   journal protection. Recovery must leave the database exactly
   all-applied or all-reverted (no torn plans) with clean structural
   integrity. The same sweep also crashes *inside* eager translation,
   where recovery resolves the interrupted transaction instead.
2. **Transient bulk** — a bulk insert/delete run with a seeded
   transient-fault rate on every mutation; the engine-level
   :class:`~repro.relational.retry.RetryPolicy` must absorb every
   injection with no caller-visible error.
3. **Degraded serving** — a burst of engine faults trips the
   :class:`~repro.serve.breaker.CircuitBreaker`;
   :class:`~repro.serve.ConcurrentPenguin` must fail writes fast, serve
   reads stale from the materialized cache, and close the breaker again
   via a probe once the fault plan is exhausted.

Everything is deterministic per ``--seed``: the fault plans, the
workload, and the retry jitter all derive from it.
"""

from __future__ import annotations

from typing import List

from repro.errors import DegradedServiceError
from repro.core.updates.translator import Translator
from repro.materialize.maintainer import LAZY
from repro.obs.history import snapshot
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan, SimulatedCrash
from repro.relational.journal import (
    ABORTED,
    COMMITTED,
    MemoryJournal,
    apply_journaled,
    recover,
)
from repro.relational.retry import RetryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.concurrent import ConcurrentPenguin
from repro.structural.integrity import IntegrityChecker
from repro.workloads.hospital import hospital_session, new_chart
from repro.workloads.synthetic import ZipfianWorkload

__all__ = ["CampaignReport", "ChaosReport", "run_campaign", "run_crash_sweep",
           "run_transient_bulk", "run_degraded_serving"]

OBJECT_NAME = "patient_chart"


class CampaignReport:
    """Counters plus invariant violations of one seeded campaign.

    A campaign names itself (:attr:`title`) and renders its own counter
    lines (:meth:`legs`); recording a violation, the verdict and the
    ``invariants`` tail of the summary are the same for all of them.
    """

    title = "campaign"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # invariant violations (empty = campaign passed)
        self.failures: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def legs(self) -> List[str]:
        raise NotImplementedError

    def summary(self) -> str:
        lines = [f"{self.title} (seed={self.seed})", *self.legs()]
        if self.ok:
            lines.append("  invariants       : all held")
        else:
            lines.append(f"  invariants       : {len(self.failures)} VIOLATED")
            for message in self.failures:
                lines.append(f"    - {message}")
        return "\n".join(lines)


class ChaosReport(CampaignReport):
    """Aggregated results of one chaos campaign."""

    title = "chaos campaign"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # crash sweep
        self.crash_points = 0
        self.crashes_injected = 0
        self.plans_reverted = 0
        self.plans_committed = 0
        self.torn_plans = 0
        self.recovery_conflicts = 0
        # transient bulk
        self.bulk_instances = 0
        self.bulk_operations = 0
        self.transient_injected = 0
        self.retries_absorbed = 0
        self.retries_gave_up = 0
        # degraded serving
        self.breaker_opened = 0
        self.breaker_closed = 0
        self.stale_reads = 0
        self.writes_refused = 0

    def legs(self) -> List[str]:
        return [
            f"  crash sweep      : {self.crash_points} crash points, "
            f"{self.crashes_injected} crashes injected, "
            f"{self.plans_reverted} reverted, "
            f"{self.plans_committed} committed, "
            f"{self.torn_plans} torn, "
            f"{self.recovery_conflicts} conflicts",
            f"  transient bulk   : {self.bulk_instances} instances, "
            f"{self.bulk_operations} operations, "
            f"{self.transient_injected} faults injected, "
            f"{self.retries_absorbed} absorbed by retry, "
            f"{self.retries_gave_up} gave up",
            f"  degraded serving : opened {self.breaker_opened}, "
            f"closed {self.breaker_closed}, "
            f"{self.stale_reads} stale reads, "
            f"{self.writes_refused} writes refused",
        ]


def _fresh_hospital(patients: int):
    session = hospital_session(patients)
    return session.graph, session.engine, session.object(OBJECT_NAME)


# Every chart of the bulk leg (``new_chart`` with leaves) costs this many
# database operations (patient + visit + diagnosis + prescription + lab
# result); used to convert an --ops budget into a batch size.
_OPS_PER_CHART = 5


# ---------------------------------------------------------------------------
# Leg 1: crash sweep
# ---------------------------------------------------------------------------


def run_crash_sweep(
    report: ChaosReport,
    seed: int = 0,
    patients: int = 4,
    translation_crashes: int = 8,
) -> ChaosReport:
    """Crash at every mutation index of several chart deletions.

    Phase A applies each journaled plan *non-atomically* (each
    operation autocommits), so a crash at index k leaves a genuinely
    torn prefix that only the journal's before-images can repair.
    Phase B crashes inside eager translation, where the open
    transaction's undo log carries the repair instead.
    """
    graph, probe_engine, view_object = _fresh_hospital(patients)
    checker = IntegrityChecker(graph)
    translator = Translator(view_object)
    patient_ids = sorted(
        row[0] for row in probe_engine.scan("PATIENT")
    )

    # Phase A: torn non-atomic applies, one crash point per op index,
    # plus one control point past the end (no crash fires).
    for pid in patient_ids:
        plan_length = len(translator.preview_delete(probe_engine, key=(pid,)))
        for k in range(1, plan_length + 2):
            graph_k, engine_k, view_object_k = _fresh_hospital(patients)
            plan = Translator(view_object_k).preview_delete(engine_k, key=(pid,))
            before = snapshot(engine_k)
            journal = MemoryJournal()
            faulty = FaultInjectingEngine(
                engine_k, FaultPlan(seed).crash_at("mutation", at=k)
            )
            report.crash_points += 1
            crashed = False
            try:
                apply_journaled(
                    faulty, journal, plan, atomic=False, label=f"chart-{pid}"
                )
            except SimulatedCrash:
                crashed = True
                report.crashes_injected += 1
            recovery = recover(engine_k, journal)
            report.recovery_conflicts += len(recovery.conflicts)
            after = snapshot(engine_k)
            statuses = {entry.state for entry in journal.entries()}
            if crashed:
                report.plans_reverted += 1
                if after != before or statuses != {ABORTED}:
                    report.torn_plans += 1
                    report.fail(
                        f"crash sweep: chart {pid} op {k}: torn state "
                        f"after recovery (statuses={sorted(statuses)})"
                    )
            else:
                report.plans_committed += 1
                entry = journal.entries()[0]
                applied = all(
                    engine_k.get(relation, key) == after_image
                    for (relation, key), (_, after_image) in entry.images().items()
                )
                if not applied or statuses != {COMMITTED}:
                    report.torn_plans += 1
                    report.fail(
                        f"crash sweep: chart {pid}: completed plan not at "
                        f"after-images (statuses={sorted(statuses)})"
                    )
            violations = checker.check(engine_k)
            report.require(
                not violations,
                f"crash sweep: chart {pid} op {k}: "
                f"{len(violations)} integrity violations after recovery",
            )

    # Phase B: crashes inside eager translation (the Translator's own
    # transaction is open; recovery discards it).
    pid = patient_ids[0]
    for k in range(1, translation_crashes + 1):
        graph_k, engine_k, view_object_k = _fresh_hospital(patients)
        faulty = FaultInjectingEngine(
            engine_k, FaultPlan(seed).crash_at("mutation", at=k)
        )
        session = Penguin(
            graph_k, engine=faulty, install=False, journal=MemoryJournal()
        )
        session.register_object(view_object_k)
        before = snapshot(engine_k)
        report.crash_points += 1
        try:
            session.delete(OBJECT_NAME, (pid,))
            report.plans_committed += 1
        except SimulatedCrash:
            report.crashes_injected += 1
            recovery = session.recover()
            report.recovery_conflicts += len(recovery.conflicts)
            report.plans_reverted += 1
            after = snapshot(engine_k)
            if after != before:
                report.torn_plans += 1
                report.fail(
                    f"translation crash at op {k}: state not reverted"
                )
        violations = checker.check(engine_k)
        report.require(
            not violations,
            f"translation crash at op {k}: "
            f"{len(violations)} integrity violations after recovery",
        )
    return report


# ---------------------------------------------------------------------------
# Leg 2: transient bulk
# ---------------------------------------------------------------------------


def run_transient_bulk(
    report: ChaosReport,
    seed: int = 0,
    ops: int = 200,
    rate: float = 0.1,
    patients: int = 4,
) -> ChaosReport:
    """Bulk insert + delete with a transient-fault rate on mutations.

    The retry policy on the engine must absorb every injection: the
    caller sees no error, and the database ends consistent.
    """
    graph, base, view_object = _fresh_hospital(patients)
    faulty = FaultInjectingEngine(
        base, FaultPlan(seed).transient_rate(rate, ("mutation",))
    )
    faulty.retry_policy = RetryPolicy(
        max_attempts=8, seed=seed, sleep=lambda _: None
    )
    session = Penguin(
        graph, engine=faulty, install=False, journal=MemoryJournal()
    )
    session.register_object(view_object)

    count = max(1, ops // _OPS_PER_CHART)
    batch = [
        new_chart(
            50_000 + i, f"Chaos Patient {i}", 1960 + (i % 50), "chaos",
            leaves=("hypertension", "mild", 7, 1.0),
        )
        for i in range(count)
    ]
    report.bulk_instances = count
    # Victim choice is zipfian (seeded): hot charts are deleted with
    # realistic skew instead of a fixed stride, so the retry path sees
    # the same contention shape as the serving load test.
    workload = ZipfianWorkload(
        population=count, skew=1.1, seed=seed, tenants=4
    )
    victims = sorted(
        {(50_000 + workload.sample_rank(),) for _ in range(max(1, count // 3))}
    )
    try:
        plan = session.insert_many(OBJECT_NAME, batch)
        report.bulk_operations += len(plan)
        plan = session.delete_many(OBJECT_NAME, victims)
        report.bulk_operations += len(plan)
    except Exception as exc:  # noqa: BLE001 - any escape is a violation
        report.fail(
            f"transient bulk: caller-visible error despite retry "
            f"policy: {type(exc).__name__}: {exc}"
        )
    report.transient_injected = faulty.injected["transient"]
    stats = faulty.retry_policy.stats()
    report.retries_absorbed = stats["absorbed"]
    report.retries_gave_up = stats["gave_up"]
    report.require(
        report.transient_injected > 0,
        "transient bulk: the fault plan never fired "
        "(rate or op budget too low to exercise the retry path)",
    )
    report.require(
        report.retries_gave_up == 0,
        f"transient bulk: retry policy gave up "
        f"{report.retries_gave_up} times",
    )
    violations = IntegrityChecker(graph).check(base)
    report.require(
        not violations,
        f"transient bulk: {len(violations)} integrity violations",
    )
    pending = session.journal.pending()
    report.require(
        not pending,
        f"transient bulk: {len(pending)} journal entries left pending",
    )
    return report


# ---------------------------------------------------------------------------
# Leg 3: degraded serving
# ---------------------------------------------------------------------------


def run_degraded_serving(
    report: ChaosReport, seed: int = 0, patients: int = 4
) -> ChaosReport:
    """Fault burst → DEGRADED → stale reads + fast-fail writes → recovery."""
    graph, base, view_object = _fresh_hospital(patients)
    breaker = CircuitBreaker(failure_threshold=3, probe_interval=3)
    faulty = FaultInjectingEngine(
        base,
        FaultPlan(seed).transient_burst(
            breaker.failure_threshold, ("mutation",)
        ),
    )
    session = Penguin(graph, engine=faulty, install=False)
    session.register_object(view_object)
    serving = ConcurrentPenguin(session, breaker=breaker)
    serving.materialize(OBJECT_NAME, LAZY)
    healthy_extent = len(serving.query(OBJECT_NAME))  # warms the cache

    patient_ids = sorted(row[0] for row in base.scan("PATIENT"))
    # Each write attempt consumes one burst unit and fails (the fault
    # fires before anything is deleted, so a patient can be retried);
    # the threshold-th failure opens the breaker.
    for attempt in range(breaker.failure_threshold):
        pid = patient_ids[attempt % len(patient_ids)]
        try:
            serving.delete(OBJECT_NAME, (pid,))
            report.fail("degraded serving: faulted write succeeded")
        except Exception:  # noqa: BLE001 - transient fault surfaces
            pass
    report.require(
        breaker.degraded,
        "degraded serving: breaker did not open after the fault burst",
    )

    # Writes fail fast while degraded (no engine contact, no retry wait).
    try:
        serving.delete(OBJECT_NAME, (patient_ids[-1],))
        report.fail("degraded serving: write accepted while degraded")
    except DegradedServiceError:
        report.writes_refused += 1

    # Reads are served stale from the materialized cache until a probe
    # (every probe_interval-th request) reaches the now-healthy engine.
    stale_served = 0
    while breaker.degraded:
        instances = serving.query(OBJECT_NAME)
        report.require(
            len(instances) == healthy_extent,
            "degraded serving: stale extent diverged from the cache",
        )
        stale_served += 1
        if stale_served > 10 * breaker.probe_interval:
            report.fail("degraded serving: breaker never closed")
            break
    view = serving.materialized(OBJECT_NAME)
    report.stale_reads = view.stats.stale_reads
    report.breaker_opened = breaker.opened
    report.breaker_closed = breaker.closed
    report.require(
        breaker.healthy, "degraded serving: breaker did not close"
    )
    report.require(
        report.stale_reads > 0,
        "degraded serving: no reads were served stale",
    )
    # Back to healthy: writes work again.
    try:
        serving.delete(OBJECT_NAME, (patient_ids[-1],))
    except Exception as exc:  # noqa: BLE001
        report.fail(
            f"degraded serving: write failed after recovery: {exc}"
        )
    return report


# ---------------------------------------------------------------------------
# The full campaign
# ---------------------------------------------------------------------------


def run_campaign(
    seed: int = 0, ops: int = 200, patients: int = 4
) -> ChaosReport:
    """All three legs; returns the aggregated report (``report.ok``)."""
    report = ChaosReport(seed)
    run_crash_sweep(report, seed=seed, patients=patients)
    run_transient_bulk(report, seed=seed, ops=ops, patients=patients)
    run_degraded_serving(report, seed=seed, patients=patients)
    return report
