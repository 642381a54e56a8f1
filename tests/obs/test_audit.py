"""AuditLog backends and the translator's recording discipline."""

import json
import os
import random
import re
import shutil

import pytest

from repro.errors import AuditError, UpdateError
from repro.obs.audit import (
    COMMITTED,
    CRASHED,
    DEGRADED_REJECTED,
    ROLLED_BACK,
    AuditLog,
    FileAuditLog,
    MemoryAuditLog,
    ShippingCursor,
)
from repro.obs.history import snapshot, state_digest
from repro.penguin import Penguin
from repro.relational.journal import (
    MemoryJournal,
    plan_images,
)
from repro.relational.operations import UpdatePlan
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema
from repro.core.updates.operations import CompleteInsertion

pytestmark = pytest.mark.audit

COURSE_KEY = ("CS999",)


def new_course(course_id="CS999", title="View Objects"):
    return {
        "course_id": course_id,
        "title": title,
        "units": 3,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }


def audited_session(audit=None):
    audit = audit if audit is not None else MemoryAuditLog()
    session = Penguin(university_schema(), audit=audit)
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "audit_inline_policy.jsonl")


def golden_writes(session):
    """The updates behind ``golden/audit_inline_policy.jsonl``: a file
    in the format that repeated each record's policy and island."""
    session.insert("course_info", new_course())
    with pytest.raises(UpdateError):
        session.insert("course_info", new_course())  # duplicate key
    session.replace("course_info", COURSE_KEY, new_course(title="Renamed"))
    session.insert_many("course_info", [new_course("CS901"), new_course("CS902")])
    session.delete("course_info", COURSE_KEY)


def later_writes(session):
    session.insert("course_info", new_course("CS903"))
    session.delete("course_info", ("CS901",))


def restarted(session, audit):
    """A new session over ``session``'s engine (a process restart)."""
    again = Penguin(session.graph, engine=session.engine, audit=audit, install=False)
    again.register_object(course_info_object(again.graph))
    return again


def sample_plan(session):
    """A real translated plan + images (without applying anything)."""
    plan = session.translator("course_info").explain_batch(
        session.engine, [CompleteInsertion(new_course())]
    ).plan
    return plan, plan_images(session.engine, plan)


class TestAuditLogCore:
    def test_append_assigns_monotonic_asns(self):
        log = MemoryAuditLog()
        session = audited_session(audit=MemoryAuditLog())
        plan, images = sample_plan(session)
        first = log.append(
            "insert", "course_info", COMMITTED, plan=plan, images=images,
            island=("COURSES",), policy={"q": True}, user="keller",
        )
        second = log.append("delete", "course_info", COMMITTED)
        assert (first, second) == (1, 2)
        assert log.head_asn() == 2
        assert len(log) == 2
        record = log.record(1)
        assert record.op == "insert"
        assert record.island == ("COURSES",)
        assert record.user == "keller"
        assert record.policy == {"q": True}
        # The stored plan and images decode back to what went in.
        assert [op.describe() for op in record.plan()] == [
            op.describe() for op in plan
        ]
        assert record.images() == images

    def test_unknown_asn_and_outcome_raise(self):
        log = MemoryAuditLog()
        with pytest.raises(AuditError):
            log.record(7)
        with pytest.raises(AuditError):
            log.append("insert", "x", "exploded")
        log.append("insert", "x", COMMITTED)
        with pytest.raises(AuditError):
            log.resolve(1, "exploded")
        with pytest.raises(AuditError):
            log.resolve(99, ROLLED_BACK)

    def test_resolve_rewrites_outcome_and_bumps_version(self):
        log = MemoryAuditLog()
        asn = log.append("insert", "x", CRASHED)
        version = log.version
        log.resolve(asn, COMMITTED)
        assert log.record(asn).state == COMMITTED
        assert log.version == version + 1
        assert log.committed()[0].id == asn

    def test_tail_returns_newest_records(self):
        log = MemoryAuditLog()
        for i in range(15):
            log.append("insert", f"o{i}", COMMITTED)
        assert [r.id for r in log.tail(3)] == [13, 14, 15]
        assert log.tail(0) == []
        with pytest.raises(ValueError):
            log.tail(-1)

    def test_reconcile_folds_journal_verdicts(self):
        session = audited_session()
        plan, images = sample_plan(session)
        journal = MemoryJournal()
        committed_id = journal.begin(plan, images)
        journal.mark_committed(committed_id)
        aborted_id = journal.begin(plan, images)
        journal.mark_aborted(aborted_id)

        log = MemoryAuditLog()
        log.append(
            "insert", "course_info", CRASHED, journal_entry=committed_id
        )
        log.append(
            "insert", "course_info", CRASHED, journal_entry=aborted_id
        )
        log.append("insert", "course_info", CRASHED)  # no journal entry
        log.append("insert", "course_info", CRASHED, journal_entry=99)
        # The journal dropped both entries; their verdicts outlive them.
        assert journal.entries() == []
        assert log.reconcile(journal) == 2
        assert log.record(1).state == COMMITTED
        assert log.record(2).state == ROLLED_BACK
        assert log.record(2).error == "reverted by recovery"
        assert log.record(3).state == CRASHED  # nothing to settle against
        assert log.record(4).state == CRASHED  # an id the journal never issued
        assert log.reconcile(journal) == 0  # idempotent


def aged_log(log, seed=18, size=500):
    """A seeded log with every fate a record can meet: committed,
    rolled back, refused, crashed and left so, crashed then reconciled
    either way against a journal, and resolved by hand."""
    rng = random.Random(seed)
    journal = MemoryJournal()
    for _ in range(size):
        fate = rng.random()
        if fate < 0.55:
            log.append("insert", "x", COMMITTED)
        elif fate < 0.7:
            log.append("insert", "x", ROLLED_BACK, error="UpdateError: no")
        elif fate < 0.75:
            log.append("insert", "x", DEGRADED_REJECTED)
        elif fate < 0.8:
            log.append("insert", "x", CRASHED)  # nothing to settle against
        else:
            entry = journal.begin(UpdatePlan(), {})
            asn = log.append("insert", "x", CRASHED, journal_entry=entry)
            verdict = rng.random()
            if verdict < 0.4:
                journal.mark_committed(entry)
            elif verdict < 0.8:
                journal.mark_aborted(entry)
            if rng.random() < 0.5:
                log.reconcile(journal)  # settled while later appends follow
            elif verdict >= 0.8 and rng.random() < 0.5:
                log.resolve(asn, COMMITTED)
    log.reconcile(journal)
    return log


def full_scan_since(log, asn):
    """``committed_since`` as the parent computed it: sort, filter, filter."""
    ordered = sorted(log.records(), key=lambda record: record.id)
    return [r for r in ordered if r.state == COMMITTED and r.id > asn]


class TestReadsFromAPosition:
    @pytest.mark.parametrize("backend", ["memory", "file", "reopened"])
    def test_committed_since_equals_the_full_scan_on_an_aged_log(
        self, backend, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        log = aged_log(MemoryAuditLog() if backend == "memory" else FileAuditLog(path))
        if backend == "reopened":
            log.close()
            log = FileAuditLog(path)
        states = {record.state for record in log.records()}
        assert states == {COMMITTED, ROLLED_BACK, DEGRADED_REJECTED, CRASHED}
        assert [r.id for r in log.records()] == list(range(1, 501))
        for asn in (-3, 0, 1, 2, 17, 250, 498, 499, 500, 501, 10_000):
            assert log.committed_since(asn) == full_scan_since(log, asn)
        assert log.committed() == full_scan_since(log, 0)
        assert log.tail(3) == log.records()[-3:]
        log.close()

    def test_a_cursor_takes_each_committed_record_once(self):
        log = MemoryAuditLog()
        log.append("insert", "x", COMMITTED)
        cursor = ShippingCursor(log)  # starts at the head: #1 is baseline
        crashed = log.append("insert", "x", CRASHED)
        assert cursor.take() == [] and cursor.lag() == 0
        third = log.append("insert", "x", COMMITTED)
        skipped = log.append("insert", "x", COMMITTED)
        cursor.skip(skipped)
        assert cursor.take() == []  # skipping #4 passed #3 too
        log.resolve(crashed, COMMITTED)
        assert cursor.take() == []  # ...and a record resolved behind it
        fifth = log.append("insert", "x", CRASHED)
        assert cursor.lag() == 0
        log.resolve(fifth, COMMITTED)  # resolved ahead of it: shippable now
        assert [r.id for r in cursor.take()] == [fifth]
        assert cursor.take() == [] and third < cursor.asn

    def test_a_file_whose_asns_do_not_ascend_is_refused(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = FileAuditLog(path)
        log.append("insert", "x", COMMITTED)
        log.append("insert", "x", COMMITTED)
        log.close()
        first, second = path.read_text().splitlines()
        path.write_text(f"{second}\n{first}\n")
        with pytest.raises(AuditError, match=":2: .*does not follow #2"):
            FileAuditLog(path)


class TestFileAuditLog:
    def test_reopen_reloads_records_and_resolutions(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = FileAuditLog(path)
        session = audited_session()
        plan, images = sample_plan(session)
        log.append(
            "insert", "course_info", CRASHED, plan=plan, images=images,
            island=("COURSES",), user="keller", journal_entry=4,
        )
        log.append("delete", "course_info", COMMITTED, items=3)
        log.resolve(1, COMMITTED)
        log.close()

        reopened = FileAuditLog(path)
        assert len(reopened) == 2
        assert reopened.head_asn() == 2
        first, second = reopened.records()
        assert first.state == COMMITTED  # the resolution marker folded
        assert first.journal_entry == 4
        assert first.images() == images
        assert second.items == 3
        # Appends continue from the reloaded ASN watermark.
        assert reopened.append("insert", "course_info", COMMITTED) == 3
        reopened.close()

    def test_the_seed_digest_survives_a_reopen(self, tmp_path):
        """The first audited write vouches for the state before it; a
        raw write after it makes a reopened log's replay fail too."""
        path = tmp_path / "audit.jsonl"
        session = audited_session(FileAuditLog(path))
        before = state_digest(snapshot(session.engine))
        session.insert("course_info", new_course())
        assert session.audit.seed == before
        session.audit.close()

        reopened = FileAuditLog(path)
        assert reopened.seed == before
        with pytest.raises(AuditError, match="empty"):
            reopened.vouch(before)
        session.audit = reopened
        assert session.replay_audit().ok
        session.engine.delete(
            "DEPARTMENT", next(session.engine.scan("DEPARTMENT"))[:1]
        )
        assert session.replay_audit().unvouched
        reopened.close()

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = FileAuditLog(path)
        log.append("insert", "course_info", COMMITTED)
        log.append("delete", "course_info", COMMITTED)
        log.close()
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"event":"record","asn":3,"op"')

        reopened = FileAuditLog(path)
        assert len(reopened) == 2  # the torn line is gone
        reopened.append("replace", "course_info", COMMITTED)
        reopened.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert [entry["asn"] for entry in lines] == [1, 2, 3]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = FileAuditLog(path)
        log.append("insert", "course_info", COMMITTED)
        log.append("delete", "course_info", COMMITTED)
        log.close()
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-5]  # damage a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AuditError, match="corrupt audit record"):
            FileAuditLog(path)

    def test_resolution_for_unknown_record_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"event":"resolve","asn":9,"outcome":"committed"}\n')
        with pytest.raises(AuditError, match="unknown"):
            FileAuditLog(path)
        path.write_text('{"event":"gibberish"}\n')
        with pytest.raises(AuditError, match="unknown audit event"):
            FileAuditLog(path)


def file_events(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def as_dicts(log):
    return [record.as_dict() for record in log.records()]


class TestAuditFileFormat:
    """A record line names its translator; the translator's policy and
    island are written once, as a ``translator`` event before it."""

    def test_a_file_in_the_inline_format_reopens_to_the_live_records(
        self, tmp_path
    ):
        live = audited_session()
        golden_writes(live)
        path = tmp_path / "audit.jsonl"
        shutil.copy(GOLDEN, path)
        reopened = FileAuditLog(path)
        assert as_dicts(reopened) == as_dicts(live.audit)
        assert restarted(live, reopened).replay_audit().ok
        reopened.close()

    def test_new_records_append_to_an_inline_format_file(self, tmp_path):
        live = audited_session()
        golden_writes(live)
        later_writes(live)
        path = tmp_path / "audit.jsonl"
        shutil.copy(GOLDEN, path)
        session = audited_session()
        golden_writes(session)
        session = restarted(session, FileAuditLog(path))
        later_writes(session)
        session.audit.close()
        events = file_events(path)
        assert events[: len(file_events(GOLDEN))] == file_events(GOLDEN)
        added = events[len(file_events(GOLDEN)):]
        assert [e["event"] for e in added] == ["translator", "record", "record"]
        assert all(e["translator"] == added[0]["id"] for e in added[1:])
        assert all("policy" not in e and "island" not in e for e in added[1:])
        reopened = FileAuditLog(path)
        assert as_dicts(reopened) == as_dicts(live.audit)
        assert restarted(session, reopened).replay_audit().ok
        reopened.close()

    def test_reopened_records_share_one_policy_and_island(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        session = audited_session(FileAuditLog(path))
        session.insert("course_info", new_course("CS901"))
        later_writes(session)
        session.audit.close()
        first, *rest = FileAuditLog(path).records()
        assert first.policy == session.translator("course_info")._policy_answers()
        assert all(r.policy is first.policy for r in rest)
        assert all(r.island is first.island for r in rest)

    def test_inline_records_of_one_content_share_one_policy_and_island(
        self, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        shutil.copy(GOLDEN, path)
        reopened = FileAuditLog(path)
        records = reopened.records()
        assert len(records) == 5
        contents = {json.dumps([r.policy, r.island], sort_keys=True) for r in records}
        assert len({id(r.policy) for r in records}) == len(contents) == 1
        first, *rest = records
        assert all(r.policy is first.policy for r in rest)
        assert all(r.island is first.island for r in rest)
        reopened.close()

    def test_a_reopened_record_reads_its_payload_from_the_file(self, tmp_path):
        """Reopened, a record reads its plan and images back by offset
        while the log is open; closed, that read is an AuditError naming
        the file. A record appended since keeps what it was handed."""
        path = tmp_path / "audit.jsonl"
        session = audited_session(FileAuditLog(path))
        session.insert("course_info", new_course())
        live = session.audit.record(1)
        session.audit.close()
        reopened = FileAuditLog(path)
        session = restarted(session, reopened)
        session.delete("course_info", COURSE_KEY)
        filed, appended = reopened.records()
        assert filed.as_dict() == live.as_dict()
        assert appended.plan_records and appended.image_records
        reopened.close()
        for read in (filed.plan, filed.images):
            with pytest.raises(AuditError, match=re.escape(f"{path}: ")):
                read()
        assert appended.plan().operations
        reopened.close()  # closing twice is harmless

    def test_a_reopened_record_reads_its_line_once_per_view(
        self, tmp_path, monkeypatch
    ):
        """``as_dict()`` and ``describe()`` each want the plan and the
        images: a reopened record reads and parses its line once for
        both, and says the same as the live record."""
        path = tmp_path / "audit.jsonl"
        session = audited_session(FileAuditLog(path))
        session.insert("course_info", new_course())
        live = session.audit.record(1)
        session.audit.close()
        reopened = FileAuditLog(path)
        (filed,) = reopened.records()
        reads = []
        reread = reopened._reread
        monkeypatch.setattr(
            reopened, "_reread", lambda record: reads.append(record.id) or reread(record)
        )
        assert filed.as_dict() == live.as_dict()
        assert reads == [1]
        assert filed.describe() == live.describe()
        assert reads == [1, 1]
        reopened.close()

    def test_a_record_naming_an_unknown_translator_raises(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text(
            '{"event":"record","asn":1,"op":"insert","object":"x",'
            '"outcome":"committed","items":1,"plan":[],"images":[],'
            '"translator":7}\n'
        )
        with pytest.raises(AuditError, match=f"{path}:1: unknown translator #7"):
            FileAuditLog(path)

    def test_each_chosen_translator_is_written_once(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        session = audited_session(FileAuditLog(path))
        answers = {"replacement.COURSES.merge_on_conflict": False}
        chosen = []
        for n, answer in enumerate((True, answers)):
            translator, _ = session.choose_translator("course_info", answer)
            chosen.append(translator._policy_answers())
            session.insert("course_info", new_course(f"CS91{n}"))
            session.delete("course_info", (f"CS91{n}",))
        session.audit.close()
        assert chosen[0] != chosen[1]
        events = file_events(path)
        translators = {e["id"]: e for e in events if e["event"] == "translator"}
        assert sorted(translators) == [1, 2]
        assert [translators[n]["policy"] for n in (1, 2)] == chosen
        named = [e["translator"] for e in events if e["event"] == "record"]
        assert named == [1, 1, 2, 2]
        reopened = FileAuditLog(path)
        assert [r.policy for r in reopened.records()] == [
            chosen[0], chosen[0], chosen[1], chosen[1]
        ]
        # After a reopen, the same answers name the translator written.
        again = restarted(session, reopened)
        again.choose_translator("course_info", True)
        again.insert("course_info", new_course("CS920"))
        reopened.close()
        events = file_events(path)
        assert sum(e["event"] == "translator" for e in events) == 2
        assert events[-1]["translator"] == 1

    def test_a_torn_record_after_its_translator_keeps_the_translator(
        self, tmp_path
    ):
        path = tmp_path / "audit.jsonl"
        session = audited_session(FileAuditLog(path))
        session.insert("course_info", new_course())
        session.audit.close()
        whole = path.read_bytes()
        record = whole.splitlines(keepends=True)[-1]
        path.write_bytes(whole + record[: len(record) // 2])
        reopened = FileAuditLog(path)
        assert path.read_bytes() == whole
        assert [r.id for r in reopened.records()] == [1]
        reopened.close()


class TestTranslatorRecording:
    def test_single_updates_audited_with_full_context(self):
        session = audited_session()
        log = session.audit
        session.insert("course_info", new_course())
        session.replace(
            "course_info", COURSE_KEY, new_course(title="Replaced")
        )
        session.delete("course_info", COURSE_KEY)
        assert len(log) == 3
        ops = [(r.op, r.state) for r in log.records()]
        assert ops == [
            ("insert", COMMITTED),
            ("replace", COMMITTED),
            ("delete", COMMITTED),
        ]
        for record in log.records():
            assert record.label == "course_info"
            assert record.plan_records, "plan must be captured"
            assert record.image_records, "images must be captured"
            assert "COURSES" in record.island
            assert isinstance(record.policy, dict) and record.policy

    def test_previews_and_explains_are_not_audited(self):
        from repro.core.updates.operations import CompleteInsertion

        session = audited_session()
        translator = session.translator("course_info")
        translator.explain_batch(
            session.engine, [CompleteInsertion(new_course())]
        )
        session.explain_update("course_info", CompleteInsertion(new_course()))
        session.query("course_info")
        session.get("course_info", ("M100",))
        assert len(session.audit) == 0

    def test_failed_translation_audited_as_rolled_back(self):
        session = audited_session()
        session.insert("course_info", new_course())
        with pytest.raises(UpdateError):
            session.insert("course_info", new_course())  # duplicate key
        records = session.audit.records()
        assert [r.state for r in records] == [COMMITTED, ROLLED_BACK]
        assert records[-1].error
        # The rollback left no trace in the database, and the audit
        # trail still replays to the live state.
        assert session.replay_audit().ok

    def test_batch_audited_as_one_record_with_items(self):
        session = audited_session()
        batch = [new_course(f"CS90{i}") for i in range(4)]
        session.insert_many("course_info", batch)
        assert len(session.audit) == 1
        record = session.audit.record(1)
        assert record.items == 4
        assert record.state == COMMITTED
        assert len(record.plan_records) == 4

    def test_query_driven_updates_audited_once(self):
        session = audited_session()
        for i in range(3):
            session.insert("course_info", new_course(f"CS90{i}"))
        session.delete_where("course_info", "title = 'View Objects'")
        records = session.audit.records()
        assert records[-1].op == "delete_where"
        assert records[-1].items == 3
        assert records[-1].state == COMMITTED
        # inner per-instance deletes ran inside the transaction and
        # must not produce their own records
        assert len(records) == 4

    def test_for_user_attribution_lands_in_records(self):
        session = audited_session()
        translator = session.translator("course_info").for_user("keller")
        plan = UpdatePlan()  # reuse the session's engine directly
        del plan
        translator.apply(session.engine, CompleteInsertion(new_course()))
        assert session.audit.record(1).user == "keller"


def test_base_class_append_payload_is_noop():
    log = AuditLog()
    log.append("insert", "x", COMMITTED)
    log.close()
    assert log.head_asn() == 1
