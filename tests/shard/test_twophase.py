"""Cross-shard atomicity under crashes: the 2PC crash-point sweep.

The acceptance bar for the coordinator: a simulated crash at *every*
prepare/apply/commit checkpoint of a two-participant transaction,
followed by recovery, must leave the multi-shard update all-applied or
all-reverted — zero torn states — and recovery must be idempotent.
"""

import json
from types import SimpleNamespace

import pytest

import repro.obs as obs
from repro.errors import ReproError
from repro.relational.faults import FaultHook, FaultPlan, SimulatedCrash
from repro.relational.ddl import relation
from repro.relational.journal import COMMITTED, FileJournal, MemoryJournal, plan_images
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import Insert, Replace, UpdatePlan
from repro.shard.twophase import (
    TwoPhaseRecoveryReport,
    parse_twophase_label,
    recover_two_phase,
    twophase_label,
)
from repro.simulate import PRESETS
from repro.workloads.hospital import hospital_session, new_chart, rehome, restarted
from tests.journal_harness import RecordingJournal, audit_outcomes

pytestmark = pytest.mark.chaos

OBJECT = "patient_chart"


def fresh_chart(pid):
    return new_chart(pid, f"Chart {pid}", 1960, "test")


def build_sharded(num_shards=4):
    return hospital_session(8, shards=num_shards)


def cross_shard_pair(router):
    for pid in range(100, 108):
        for candidate in range(60_000, 60_050):
            if router.shard_of((pid,)) != router.shard_of((candidate,)):
                return pid, candidate
    raise AssertionError("no cross-shard pair")  # pragma: no cover


def crash_at(sharded, stage, nth):
    """A coordinator crash at the ``nth`` ``stage`` checkpoint."""
    sharded.failpoint = FaultHook(FaultPlan().crash_at(stage, nth))


def patient_rows(sharded, pid):
    return [
        (shard.shard_id, row)
        for shard in sharded.shards
        for row in shard.engine.scan("PATIENT")
        if row[0] == pid
    ]


# Every checkpoint a 2-participant transaction passes through, in order
# (prepare on each shard, apply on each, commit markers on each): the
# ``twophase`` preset's fault menu, as (stage, ordinal).
CRASH_POINTS = [(fault.point, fault.at - 1) for fault in PRESETS["twophase"][1]]
assert len(CRASH_POINTS) == 6


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

    crash_at(sharded, stage, ordinal + 1)
    with pytest.raises(SimulatedCrash):
        sharded.replace(OBJECT, (old_pid,), moved)

    reborn = restarted(sharded)
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

    crash_at(sharded, "commit", 2)
    with pytest.raises(SimulatedCrash):
        sharded.replace(OBJECT, (old_pid,), moved)

    reborn = restarted(sharded)
    assert reborn.recovery.two_phase.rolled_forward
    assert reborn.get(OBJECT, (new_pid,)) is not None
    assert reborn.get(OBJECT, (old_pid,)) is None


def test_a_transaction_id_does_not_come_back_after_a_restart():
    """Found by ``simulate --preset twophase --seed 0``: the id counter
    restarted at ``txn1`` with the process, so a crash before the second
    intent of the *next* process's first transaction found the settled
    ``txn1``'s COMMITTED marker in its group and rolled the lone intent
    forward — the chart deleted on one shard, inserted on neither."""
    sharded = build_sharded(2)
    old_pid, new_pid = cross_shard_pair(sharded.router)
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    sharded.replace(OBJECT, (old_pid,), moved)  # settles as this process's first
    reborn = restarted(sharded)
    back = rehome(reborn.get(OBJECT, (new_pid,)).to_dict(), old_pid)
    crash_at(reborn, "prepare", 2)
    with pytest.raises(SimulatedCrash):
        reborn.replace(OBJECT, (new_pid,), back)
    again = restarted(reborn)
    assert again.recovery.two_phase.rolled_back
    assert not again.recovery.two_phase.rolled_forward
    assert again.get(OBJECT, (new_pid,)) is not None
    assert again.get(OBJECT, (old_pid,)) is None
    assert again.check_integrity() == []


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
    assert ("replace", "rolled_back") in audit_outcomes(sharded)
    # Nothing left for recovery.
    assert sharded.recover().two_phase.resolved == 0


@pytest.mark.parametrize(
    "declared, forward", [(1, True), (2, False)], ids=["forward", "back"]
)
def test_recovery_moves_a_cell_left_at_an_intermediate_value(declared, forward):
    """A sub-plan lands what its translation emitted, so it may insert
    and then replace one cell; a crash between the two leaves the cell
    at the intermediate row, which is the transaction's own value, not
    a foreign write. Every intent journaled (``declared`` 1) rolls
    forward, a missing sibling's (``declared`` 2) rolls back."""
    tags = relation("TAGS").integer("tag_id").text("name").key("tag_id").build()
    shard = SimpleNamespace(engine=MemoryEngine(), journal=MemoryJournal())
    shard.engine.create_relation(tags)
    plan = UpdatePlan()
    plan.add(Insert("TAGS", (30, "first")))
    plan.add(Replace("TAGS", (30,), (30, "second")))
    shard.journal.begin(
        plan, plan_images(shard.engine, plan),
        label=twophase_label("t1", declared, 0),
    )
    plan.operations[0].apply(shard.engine)  # crash before the replace

    report = recover_two_phase({0: shard})
    assert report.conflicts == []
    assert (report.rolled_forward, report.rolled_back) == (
        (["t1"], []) if forward else ([], ["t1"])
    )
    expected = (30, "second") if forward else None
    assert shard.engine.get("TAGS", (30,)) == expected


def test_a_committed_sibling_reopened_from_its_file_rolls_the_other_forward(
    tmp_path,
):
    """The crash came between the two commit markers: shard 0's entry
    is resolved, shard 1's is PENDING. Reopened, shard 0's journal keeps
    the resolved entry's stub, and that is the proof the transaction
    passed its commit point — alone, shard 1 would roll back."""
    tags = relation("TAGS").integer("tag_id").text("name").key("tag_id").build()
    plan = UpdatePlan()
    plan.add(Insert("TAGS", (30, "landed")))
    shards = {}
    for shard_id in (0, 1):
        engine = MemoryEngine()
        engine.create_relation(tags)
        journal = FileJournal(tmp_path / f"journal{shard_id}.log")
        journal.begin(
            plan, plan_images(engine, plan), label=twophase_label("t1", 2, shard_id)
        )
        plan.operations[0].apply(engine)  # phase 2 applied everywhere
        shards[shard_id] = SimpleNamespace(engine=engine, journal=journal)
    shards[0].journal.mark_committed(1)  # crash before shard 1's marker
    for shard_id, shard in shards.items():
        shard.journal.close()
        shard.journal = FileJournal(tmp_path / f"journal{shard_id}.log")

    (stub,) = shards[0].journal.entries()
    assert (stub.state, stub.plan_records) == (COMMITTED, [])
    report = recover_two_phase(shards)
    assert (report.rolled_forward, report.rolled_back) == (["t1"], [])
    assert shards[1].journal.verdict(1) == COMMITTED
    assert shards[1].engine.get("TAGS", (30,)) == (30, "landed")


def two_phase_txns(sharded):
    return {
        parse_twophase_label(entry.label)[0]
        for shard in sharded.shards
        for entry in shard.journal.entries()
        if parse_twophase_label(entry.label) is not None
    }


def test_a_restart_over_settled_journals_takes_a_fresh_transaction_id():
    """The journals hold only resolved entries, yet the next process
    does not issue a transaction id a settled transaction used."""
    sharded = build_sharded()
    old_pid, new_pid = cross_shard_pair(sharded.router)
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    sharded.replace(OBJECT, (old_pid,), moved)
    settled = two_phase_txns(sharded)
    assert len(settled) == 1
    assert not any(shard.journal.pending() for shard in sharded.shards)

    reborn = restarted(sharded)
    back = rehome(reborn.get(OBJECT, (new_pid,)).to_dict(), old_pid)
    reborn.replace(OBJECT, (new_pid,), back)
    assert len(two_phase_txns(reborn) - settled) == 1


def test_restart_with_clean_journals_is_a_noop():
    sharded = build_sharded()
    sharded.insert(OBJECT, fresh_chart(50_010))
    reborn = restarted(sharded)
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
    crash_at(sharded, crash_stage, 2)
    with pytest.raises(SimulatedCrash):
        sharded.replace(OBJECT, (old_pid,), moved)
    reborn = restarted(sharded)
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


def test_owner_audit_images_are_the_participants_journaled_images():
    """Each participant's cells are read once, in its prepare phase: the
    owner's audit record carries exactly the images the participants
    journaled, in shard order (a replicated cell, journaled by every
    shard with identical images, appears once)."""
    sharded = build_sharded()
    for shard in sharded.shards:
        shard.penguin.journal = RecordingJournal()
    old_pid, new_pid = cross_shard_pair(sharded.router)
    moved = rehome(sharded.get(OBJECT, (old_pid,)).to_dict(), new_pid)
    sharded.replace(OBJECT, (old_pid,), moved)

    journaled = {}
    for shard in sharded.shards:  # in shard order
        for entry in shard.journal.journaled():
            if entry.label.startswith("2pc:"):
                for row in entry.image_records:
                    journaled.setdefault(json.dumps(row[:2]), row)
    assert len({json.dumps(row[:2]) for row in journaled.values()}) > 1
    owner = sharded.shards[sharded.owner_of(OBJECT, (old_pid,))]
    record = owner.penguin.audit.records()[-1]
    assert (record.op, record.state) == ("replace", "committed")
    assert json.dumps(record.image_records) == json.dumps(
        list(journaled.values())
    )
