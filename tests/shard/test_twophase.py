"""Cross-shard atomicity under crashes: the 2PC crash-point sweep.

The acceptance bar for the coordinator: a simulated crash at *every*
prepare/apply/commit checkpoint of a two-participant transaction,
followed by recovery, must leave the multi-shard update all-applied or
all-reverted — zero torn states — and recovery must be idempotent.
"""

import pytest

import repro.obs as obs
from repro.errors import ReproError
from repro.shard import ShardedPenguin, TwoPhaseRecoveryReport, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)

pytestmark = pytest.mark.chaos

OBJECT = "patient_chart"


class SimulatedCrash(BaseException):
    """A process death: not an Exception, so no inline abort runs."""


def fresh_chart(pid):
    return {
        "patient_id": pid,
        "name": f"Chart {pid}",
        "birth_year": 1960,
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "test",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        ],
    }


def rehome(chart, new_pid):
    def walk(node):
        out = {}
        for key, value in node.items():
            if key == "patient_id":
                out[key] = new_pid
            elif isinstance(value, list):
                out[key] = [walk(child) for child in value]
            else:
                out[key] = value
        return out

    return walk(chart)


def build_sharded(num_shards=4):
    graph = hospital_schema()
    sharded = ShardedPenguin(graph, "PATIENT", num_shards=num_shards)
    populate_hospital(sharded_loader(sharded), HospitalConfig(patients=8))
    sharded.register_object(patient_chart_object(graph))
    return sharded


def cross_shard_pair(router):
    for pid in range(100, 108):
        for candidate in range(60_000, 60_050):
            if router.shard_of((pid,)) != router.shard_of((candidate,)):
                return pid, candidate
    raise AssertionError("no cross-shard pair")  # pragma: no cover


def restart(sharded):
    """A new facade over the same engines/journals — a process restart.

    The constructor runs recovery, exactly like a real reboot; the old
    facade is abandoned mid-transaction.
    """
    graph = sharded.graph
    reborn = ShardedPenguin(
        graph,
        "PATIENT",
        router=sharded.router,
        engines=[shard.engine for shard in sharded.shards],
        journals=[shard.journal for shard in sharded.shards],
        audits=[shard.penguin.audit for shard in sharded.shards],
        install=False,
    )
    reborn.register_object(patient_chart_object(graph))
    return reborn


def patient_rows(sharded, pid):
    return [
        (shard.shard_id, row)
        for shard in sharded.shards
        for row in shard.engine.scan("PATIENT")
        if row[0] == pid
    ]


# Every checkpoint a 2-participant transaction passes through, in
# order: prepare on each shard, apply on each, commit markers on each.
CRASH_POINTS = [
    ("prepare", 0), ("prepare", 1),
    ("apply", 0), ("apply", 1),
    ("commit", 0), ("commit", 1),
]


@pytest.mark.parametrize("stage,ordinal", CRASH_POINTS)
def test_crash_sweep_never_tears(stage, ordinal):
    """Crash at each checkpoint; after restart-recovery the re-homing
    is all-applied or all-reverted — the patient exists under exactly
    one key, on exactly one shard."""
    sharded = build_sharded()
    old_pid, new_pid = cross_shard_pair(sharded.router)
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    before = {
        name: sharded.all_rows(name)
        for name in sharded.graph.relation_names
    }

    hits = {"count": 0}

    def failpoint(fp_stage, shard_id):
        if fp_stage == stage:
            if hits["count"] == ordinal:
                raise SimulatedCrash(f"crash at {stage}#{ordinal}")
            hits["count"] += 1

    sharded.failpoint = failpoint
    with pytest.raises(SimulatedCrash):
        sharded.replace(OBJECT, (old_pid,), moved)

    reborn = restart(sharded)
    report = reborn.recovery.two_phase
    assert report.clean

    old_rows = patient_rows(reborn, old_pid)
    new_rows = patient_rows(reborn, new_pid)
    # All-or-nothing: exactly one of the two keys exists, on one shard.
    assert (len(old_rows), len(new_rows)) in ((1, 0), (0, 1)), (
        f"TORN after crash at {stage}#{ordinal}: "
        f"old={old_rows} new={new_rows}"
    )
    if new_rows:
        # Rolled forward: the whole after-state, not just the pivot row.
        assert report.rolled_forward
        assert reborn.get(OBJECT, (new_pid,)) is not None
        assert reborn.get(OBJECT, (old_pid,)) is None
    else:
        # Rolled back: every relation is byte-identical to before.
        assert report.rolled_back or not report.resolved
        after = {
            name: reborn.all_rows(name)
            for name in reborn.graph.relation_names
        }
        assert after == before

    # No pending journal work anywhere; integrity holds.
    for shard in reborn.shards:
        assert shard.journal.pending() == []
    assert reborn.check_integrity() == []

    # Idempotent: a second recovery pass resolves nothing.
    again = reborn.recover()
    assert again.two_phase.resolved == 0
    assert again.clean


def test_recovery_is_ordered_before_per_shard_recovery():
    """A crash between commit markers must roll FORWARD (one sibling is
    already COMMITTED), which only the global 2PC pass can decide —
    per-shard recovery alone would have torn it."""
    sharded = build_sharded()
    old_pid, new_pid = cross_shard_pair(sharded.router)
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)

    def crash_between_commits(stage, shard_id):
        if stage == "commit":
            if crash_between_commits.armed:
                raise SimulatedCrash("second commit marker")
            crash_between_commits.armed = True

    crash_between_commits.armed = False
    sharded.failpoint = crash_between_commits
    with pytest.raises(SimulatedCrash):
        sharded.replace(OBJECT, (old_pid,), moved)

    reborn = restart(sharded)
    assert reborn.recovery.two_phase.rolled_forward
    assert reborn.get(OBJECT, (new_pid,)) is not None
    assert reborn.get(OBJECT, (old_pid,)) is None


def test_inline_abort_reverts_applied_participants():
    """An ordinary failure mid-apply (duplicate key on the target
    shard) aborts the transaction inline: already-applied work is
    reverted, every journal entry is marked aborted, and the update is
    audited rolled_back."""
    sharded = build_sharded()
    old_pid, new_pid = cross_shard_pair(sharded.router)
    # Sabotage the target shard: the new pivot key already exists there.
    target = sharded.shards[sharded.router.shard_of((new_pid,))]
    target.engine.insert(
        "PATIENT",
        {
            "patient_id": new_pid,
            "name": "Occupant",
            "birth_year": 1900,
            "ward_name": None,
        },
    )
    before = {
        name: sharded.all_rows(name)
        for name in sharded.graph.relation_names
    }
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    with pytest.raises(ReproError):
        sharded.replace(OBJECT, (old_pid,), moved)

    after = {
        name: sharded.all_rows(name)
        for name in sharded.graph.relation_names
    }
    assert after == before
    for shard in sharded.shards:
        assert shard.journal.pending() == []
    assert ("replace", "rolled_back") in sharded.audit_outcomes()
    # Nothing left for recovery.
    assert sharded.recover().two_phase.resolved == 0


def test_restart_with_clean_journals_is_a_noop():
    sharded = build_sharded()
    sharded.insert(OBJECT, fresh_chart(50_010))
    reborn = restart(sharded)
    assert isinstance(reborn.recovery.two_phase, TwoPhaseRecoveryReport)
    assert reborn.recovery.two_phase.resolved == 0
    assert reborn.get(OBJECT, (50_010,)) is not None


@pytest.fixture
def restore_directions(monkeypatch):
    """Every ``to_after`` two-phase code hands the one restore routine."""
    import repro.shard.twophase as twophase
    from repro.relational.journal import restore_images

    directions = []

    def spy(engine, images, to_after, plan=None):
        directions.append(to_after)
        return restore_images(engine, images, to_after, plan=plan)

    monkeypatch.setattr(twophase, "restore_images", spy)
    return directions


@pytest.mark.parametrize(
    "crash_stage, expected",
    [("prepare", [False]), ("apply", [True, True]), ("commit", [True])],
)
def test_recovery_restores_through_restore_images(
    crash_stage, expected, restore_directions
):
    """Crash before the second prepare / apply / commit marker: the lone
    intent rolls back, two journaled intents both roll forward, the
    unmarked sibling of a committed entry rolls forward."""
    sharded = build_sharded()
    old_pid, new_pid = cross_shard_pair(sharded.router)
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    seen = []

    def failpoint(stage, shard_id):
        seen.append(stage)
        if seen.count(crash_stage) == 2:
            raise SimulatedCrash(f"second {crash_stage}")

    sharded.failpoint = failpoint
    with pytest.raises(SimulatedCrash):
        sharded.replace(OBJECT, (old_pid,), moved)
    reborn = restart(sharded)
    assert restore_directions == expected
    survivor = new_pid if expected[0] else old_pid
    assert reborn.get(OBJECT, (survivor,)) is not None


def test_inline_abort_restores_through_restore_images(restore_directions):
    sharded = build_sharded()
    router = sharded.router
    # Re-home towards the higher shard id: participants apply in id
    # order, so the source has applied when the occupied target fails.
    old_pid, new_pid = next(
        (pid, candidate)
        for pid in range(100, 108)
        for candidate in range(60_000, 60_050)
        if router.shard_of((pid,)) < router.shard_of((candidate,))
    )
    sharded.shards[router.shard_of((new_pid,))].engine.insert(
        "PATIENT",
        {"patient_id": new_pid, "name": "Occupant", "birth_year": 1900,
         "ward_name": None},
    )
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    with obs.use() as hub:
        with pytest.raises(ReproError):
            sharded.replace(OBJECT, (old_pid,), moved)
        # ...and is counted as the failed write it is, like any commit
        # step's abort branch.
        assert hub.metrics.counter(
            "translation_failures_total", op="replace"
        ).value == 1
        assert hub.metrics.counter_total("translations_total") == 0
    assert restore_directions == [False]
    assert sharded.get(OBJECT, (old_pid,)) is not None
