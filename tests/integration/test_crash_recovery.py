"""Crash-point sweep: kill the process at every op index, then recover.

The ISSUE's acceptance scenario: a multi-relation patient-chart deletion
plan is applied *non-atomically* (each operation autocommits, modelling
a storage layer without multi-operation atomicity) under journal
protection, with a :class:`SimulatedCrash` injected at the k-th
mutation for every k. Recovery from the journaled before/after images
must leave the database exactly all-applied or all-reverted — never
torn — with structural integrity intact.
"""

import json

import pytest

from repro.core.updates.operations import CompleteDeletion
from repro.core.updates.translator import Translator
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan, SimulatedCrash
from repro.relational.journal import (
    ABORTED,
    COMMITTED,
    MemoryJournal,
    recover,
)
from repro.relational.memory_engine import MemoryEngine
from repro.structural.integrity import IntegrityChecker
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from tests.journal_harness import RecordingJournal, apply_journaled, resolved

pytestmark = pytest.mark.chaos

PATIENTS = 2


def fresh_hospital():
    graph = hospital_schema()
    engine = MemoryEngine()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=PATIENTS))
    return graph, engine, patient_chart_object(graph)


def snapshot(engine):
    return {name: set(engine.scan(name)) for name in engine.relation_names()}


def deletion_plan(view_object, engine, pid):
    """The plan deleting chart ``pid`` would apply, the database untouched."""
    return Translator(view_object).explain_batch(
        engine, [CompleteDeletion((pid,))]
    ).plan


def _sweep_bounds():
    """(patient id, plan length) of the chart whose deletion we sweep."""
    _, engine, view_object = fresh_hospital()
    pid = min(row[0] for row in engine.scan("PATIENT"))
    plan = deletion_plan(view_object, engine, pid)
    return pid, len(plan)


PID, PLAN_LEN = _sweep_bounds()


class TestNonAtomicCrashSweep:
    """Torn prefixes: each op autocommits, so only the journal can repair."""

    def test_plan_is_multi_relation(self):
        _, engine, view_object = fresh_hospital()
        plan = deletion_plan(view_object, engine, PID)
        relations = {op.relation for op in plan.operations}
        assert len(relations) >= 3  # patient, visits, and their children
        assert len(plan) == PLAN_LEN >= 5

    @pytest.mark.parametrize("k", range(1, PLAN_LEN + 1))
    def test_crash_at_op_k_recovers_to_all_reverted(self, k):
        graph, engine, view_object = fresh_hospital()
        plan = deletion_plan(view_object, engine, PID)
        before = snapshot(engine)
        journal = RecordingJournal()
        faulty = FaultInjectingEngine(
            engine, FaultPlan().crash_at("mutation", at=k)
        )
        with pytest.raises(SimulatedCrash):
            apply_journaled(faulty, journal, plan, atomic=False)

        report = recover(engine, journal)
        assert report.clean
        assert snapshot(engine) == before
        assert {e.state for e in journal.journaled()} == {ABORTED}
        assert not IntegrityChecker(graph).check(engine)

    def test_a_backlog_of_torn_plans_resolves_in_one_pass(self):
        """A crash loop left many interrupted plans PENDING: one
        recovery pass resolves every one of them, cleanly."""
        graph, engine, view_object = fresh_hospital()
        before = snapshot(engine)
        journal = MemoryJournal()
        backlog = 0
        for pid in sorted(row[0] for row in engine.scan("PATIENT")):
            plan = deletion_plan(view_object, engine, pid)
            faulty = FaultInjectingEngine(
                engine, FaultPlan().crash_at("mutation", at=1 + backlog)
            )
            with pytest.raises(SimulatedCrash):
                apply_journaled(faulty, journal, plan, atomic=False)
            backlog += 1
        assert len(journal.pending()) == backlog == PATIENTS
        assert snapshot(engine) != before
        report = recover(engine, journal)
        assert resolved(report) == backlog
        assert report.clean
        assert journal.pending() == []
        assert snapshot(engine) == before
        assert not IntegrityChecker(graph).check(engine)

    def test_no_crash_control_point_commits(self):
        """One index past the end: the plan completes and stays applied."""
        graph, engine, view_object = fresh_hospital()
        plan = deletion_plan(view_object, engine, PID)
        journal = RecordingJournal()
        faulty = FaultInjectingEngine(
            engine, FaultPlan().crash_at("mutation", at=PLAN_LEN + 1)
        )
        apply_journaled(faulty, journal, plan, atomic=False)
        assert {e.state for e in journal.journaled()} == {COMMITTED}
        assert engine.get("PATIENT", (PID,)) is None
        assert resolved(recover(engine, journal)) == 0
        assert not IntegrityChecker(graph).check(engine)

    def test_crash_during_atomic_commit_reverts(self):
        """Crash inside commit: the rollback already undid the batch;
        recovery just has to notice nothing moved and mark ABORTED."""
        graph, engine, view_object = fresh_hospital()
        plan = deletion_plan(view_object, engine, PID)
        before = snapshot(engine)
        journal = RecordingJournal()
        faulty = FaultInjectingEngine(
            engine, FaultPlan().crash_at("commit", at=1)
        )
        with pytest.raises(SimulatedCrash):
            apply_journaled(faulty, journal, plan, atomic=True)
        report = recover(engine, journal)
        assert report.clean
        assert snapshot(engine) == before
        assert {e.state for e in journal.journaled()} == {ABORTED}


class TestTranslationCrash:
    """Crash inside eager translation: the open transaction is discarded."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_session_recovers_after_mid_translation_crash(self, k):
        graph, engine, view_object = fresh_hospital()
        faulty = FaultInjectingEngine(
            engine, FaultPlan().crash_at("mutation", at=k)
        )
        session = Penguin(
            graph, engine=faulty, install=False, journal=MemoryJournal()
        )
        session.register_object(view_object)
        before = snapshot(engine)
        with pytest.raises(SimulatedCrash):
            session.delete("patient_chart", (PID,))
        report = session.recover()
        assert report.clean
        assert report.transactions_discarded >= 1
        assert snapshot(engine) == before
        assert not IntegrityChecker(graph).check(engine)

    def test_recovery_runs_at_startup(self, tmp_path):
        """A new session over a journal with PENDING entries heals first."""
        from repro.relational.journal import FileJournal

        path = tmp_path / "plans.journal"
        graph, engine, view_object = fresh_hospital()
        plan = deletion_plan(view_object, engine, PID)
        before = snapshot(engine)
        journal = FileJournal(path)
        faulty = FaultInjectingEngine(
            engine, FaultPlan().crash_at("mutation", at=3)
        )
        with pytest.raises(SimulatedCrash):
            apply_journaled(faulty, journal, plan, atomic=False)
        journal.close()  # process dies with the entry PENDING

        reopened = FileJournal(path)
        session = Penguin(
            graph, engine=engine, install=False, journal=reopened
        )
        assert session.recovery_report is not None
        assert session.recovery_report.reverted
        assert snapshot(engine) == before
        reopened.close()

    def test_restart_after_a_torn_pending_line(self, tmp_path):
        """The crash the journal exists for, one step earlier: the
        process died *while appending* a PENDING line, after an earlier
        plan was left half-applied. The restarted session must open
        both logs, drop the torn tails, resolve the whole entry and
        come up clean (drift bug 8: the journal refused to open)."""
        from repro.obs.audit import CRASHED, ROLLED_BACK, FileAuditLog
        from repro.relational.journal import FileJournal

        journal_path = tmp_path / "journal.log"
        audit_path = tmp_path / "audit.log"
        graph, engine, view_object = fresh_hospital()
        plan = deletion_plan(view_object, engine, PID)
        before = snapshot(engine)
        journal = FileJournal(journal_path)
        audit = FileAuditLog(audit_path)
        faulty = FaultInjectingEngine(
            engine, FaultPlan().crash_at("mutation", at=3)
        )
        with pytest.raises(SimulatedCrash):
            apply_journaled(faulty, journal, plan, atomic=False)
        audit.append(
            "delete", "patient_chart", CRASHED, plan=plan, journal_entry=1
        )
        journal.close()
        audit.close()
        whole = journal_path.read_bytes(), audit_path.read_bytes()
        # The next write got as far as half a line in each file.
        with open(journal_path, "ab") as f:
            f.write(whole[0][: len(whole[0]) // 2].replace(b'"id":1', b'"id":2'))
        with open(audit_path, "ab") as f:
            f.write(b'{"event":"record","asn":2,"op":"ins')

        session = Penguin(
            graph,
            engine=engine,
            journal=FileJournal(journal_path),
            audit=FileAuditLog(audit_path),
            install=False,
        )
        assert session.recovery_report.reverted == [1]
        assert session.recovery_report.clean
        assert session.journal.pending() == []
        assert snapshot(engine) == before
        assert [(r.id, r.state) for r in session.audit.records()] == [
            (1, ROLLED_BACK)  # reconciled against the journal's verdict
        ]
        assert not IntegrityChecker(graph).check(engine)
        # Both files are whole lines again, and the next write lands on
        # a line of its own.
        session.register_object(view_object)
        session.delete("patient_chart", (PID,))
        session.journal.close()
        session.audit.close()
        for path in (journal_path, audit_path):
            lines = path.read_text().splitlines()
            assert all(json.loads(line) for line in lines)
        reopened = FileJournal(journal_path)
        assert [(n, reopened.verdict(n)) for n in range(1, len(reopened) + 1)] == [
            (1, ABORTED), (2, COMMITTED),
        ]
        reopened.close()
