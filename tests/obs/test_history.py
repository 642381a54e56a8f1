"""Time travel (``as_of``) and replay verification against the audit log."""

import random

import pytest

from repro.errors import AuditError, UpdateError
from repro.obs.audit import COMMITTED, CRASHED, MemoryAuditLog, ROLLED_BACK
from repro.obs.history import as_of, snapshot
from repro.penguin import Penguin
from repro.relational.faults import (
    FaultRule,
    FaultInjectingEngine,
    FaultPlan,
    SimulatedCrash,
)
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.figures import course_info_object
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.university import populate_university, university_schema

pytestmark = pytest.mark.audit


def new_course(course_id="CS999", title="View Objects", units=3):
    return {
        "course_id": course_id,
        "title": title,
        "units": units,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }


def university_session(**kwargs):
    session = Penguin(
        university_schema(), audit=MemoryAuditLog(), **kwargs
    )
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session


class TestAsOf:
    def test_reconstructs_every_past_state(self):
        session = university_session()
        states = [snapshot(session.engine)]
        session.insert("course_info", new_course())
        states.append(snapshot(session.engine))
        session.replace(
            "course_info", ("CS999",), new_course(title="Revised")
        )
        states.append(snapshot(session.engine))
        session.delete("course_info", ("CS999",))
        states.append(snapshot(session.engine))
        for asn, expected in enumerate(states):
            assert session.as_of(asn) == expected

    def test_single_relation_projection(self):
        session = university_session()
        session.insert("course_info", new_course())
        courses = session.as_of(0, relation="COURSES")
        assert ("CS999",) not in courses
        live_courses = snapshot(session.engine)["COURSES"]
        assert set(courses) == set(live_courses) - {("CS999",)}
        # the live head, restricted to the same relation, has the row
        assert ("CS999",) in session.as_of(1, relation="COURSES")

    def test_future_asn_is_the_live_state(self):
        session = university_session()
        session.insert("course_info", new_course())
        assert session.as_of(session.audit.head_asn()) == snapshot(
            session.engine
        )

    def test_foreign_write_fails_verification(self):
        session = university_session()
        session.insert("course_info", new_course())
        schema = session.engine.schema("COURSES")
        row = session.engine.get("COURSES", ("CS999",))
        doctored = list(row)
        doctored[1] = "edited behind the audit trail"
        session.engine.replace("COURSES", schema.key_of(row), doctored)
        with pytest.raises(AuditError, match="bypassed the audit trail"):
            session.as_of(0)
        # Verification can be waived for forensics on a diverged head.
        state = as_of(
            session.audit, session.engine, 0, verify=False
        )
        assert ("CS999",) not in state["COURSES"]


class TestReplay:
    def test_figure4_round_trip_is_byte_identical(self):
        session = university_session()
        session.insert("course_info", new_course())
        session.replace(
            "course_info", ("CS999",), new_course(title="Revised")
        )
        session.delete("course_info", ("CS999",))
        report = session.replay_audit()
        assert report.ok, report.summary()
        assert report.replayed == [1, 2, 3]
        assert report.mismatches == []
        assert "byte-identical" in report.summary()

    def test_insert_delete_rounds_on_sqlite_replay_clean(self):
        """Every translated update on the sqlite engine is recorded once,
        committed, and the trail replays to the live database (reads and
        queries leave no record)."""
        from repro.relational.sqlite_engine import SqliteEngine

        session = university_session(engine=SqliteEngine())
        rounds = 10
        for i in range(rounds):
            session.insert("course_info", new_course(f"SQL{i:04d}"))
            session.get("course_info", (f"SQL{i:04d}",))
        session.query("course_info")
        for i in range(rounds):
            session.delete("course_info", (f"SQL{i:04d}",))
        assert len(session.audit) == 2 * rounds
        assert {r.state for r in session.audit.records()} == {COMMITTED}
        report = session.replay_audit()
        assert report.ok, report.summary()

    def test_seeded_200_op_mixed_batch(self):
        session = university_session()
        rng = random.Random(2026)
        live = []
        next_id = 0
        for _ in range(200):
            roll = rng.random()
            if not live or roll < 0.5:
                course_id = f"RPL{next_id:04d}"
                next_id += 1
                session.insert("course_info", new_course(course_id))
                live.append(course_id)
            elif roll < 0.8:
                course_id = rng.choice(live)
                session.replace(
                    "course_info",
                    (course_id,),
                    new_course(course_id, units=rng.randint(1, 6)),
                )
            else:
                course_id = live.pop(rng.randrange(len(live)))
                session.delete("course_info", (course_id,))
        assert session.audit.head_asn() == 200
        report = session.replay_audit()
        assert report.ok, report.summary()
        assert len(report.replayed) == 200

    def test_non_committed_records_are_skipped(self):
        session = university_session()
        session.insert("course_info", new_course())
        with pytest.raises(UpdateError):
            session.insert("course_info", new_course())  # rolls back
        session.audit.append(
            op="insert",
            object_name="course_info",
            outcome="degraded_rejected",
            error="DegradedServiceError: refused",
        )
        report = session.replay_audit()
        assert report.ok, report.summary()
        assert report.replayed == [1]
        assert sorted(report.skipped) == [
            (2, ROLLED_BACK),
            (3, "degraded_rejected"),
        ]
        assert "2 non-committed" in report.summary()

    def test_replay_detects_divergence(self):
        session = university_session()
        session.insert("course_info", new_course())
        schema = session.engine.schema("COURSES")
        row = session.engine.get("COURSES", ("CS999",))
        doctored = list(row)
        doctored[1] = "diverged"
        session.engine.replace("COURSES", schema.key_of(row), doctored)
        report = session.replay_audit()
        assert not report.ok
        assert report.mismatches
        relation, key, expected, got = report.mismatches[0]
        assert (relation, key) == ("COURSES", ("CS999",))
        assert "diverged" in str(expected)  # live state is the 'expected'


class TestChaosReplay:
    """Crashed and rolled-back updates are audited but excluded."""

    def hospital_session(self, crash_at=None):
        graph = hospital_schema()
        base = MemoryEngine()
        graph.install(base)
        populate_hospital(base, HospitalConfig(patients=3))
        engine = base
        if crash_at is not None:
            engine = FaultInjectingEngine(
                base, FaultPlan(seed=0).add(FaultRule("crash", ("mutation",), at=crash_at))
            )
        session = Penguin(
            graph,
            engine=engine,
            install=False,
            journal=MemoryJournal(),
            audit=MemoryAuditLog(),
        )
        session.register_object(patient_chart_object(graph))
        return session

    def test_crash_mid_translation_audited_and_excluded(self):
        session = self.hospital_session(crash_at=2)
        pid = sorted(row[0] for row in session.engine.scan("PATIENT"))[0]
        with pytest.raises(SimulatedCrash):
            session.delete("patient_chart", (pid,))
        assert session.audit.record(1).state == CRASHED
        session.recover()  # reverts the torn translation
        # The interrupted delete had no journal entry yet, so it stays
        # crashed — and stays out of the replay.
        session.delete("patient_chart", (pid,))  # now succeeds
        records = session.audit.records()
        assert [r.state for r in records] == [CRASHED, COMMITTED]
        report = session.replay_audit()
        assert report.ok, report.summary()
        assert report.replayed == [2]
        assert report.skipped == [(1, CRASHED)]

    def test_mixed_chaos_workload_replays_clean(self):
        session = self.hospital_session()
        pids = sorted(row[0] for row in session.engine.scan("PATIENT"))
        session.delete("patient_chart", (pids[0],))
        duplicate = {
            "patient_id": pids[1],  # key collision at apply time
            "name": "Duplicate",
            "birth_year": 1970,
            "ward_name": None,
            "VISIT": [],
        }
        with pytest.raises(UpdateError):
            session.insert("patient_chart", duplicate)
        session.delete("patient_chart", (pids[1],))
        outcomes = [r.state for r in session.audit.records()]
        assert outcomes == [COMMITTED, ROLLED_BACK, COMMITTED]
        report = session.replay_audit()
        assert report.ok, report.summary()
        assert report.replayed == [1, 3]
