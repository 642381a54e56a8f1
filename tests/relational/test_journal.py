"""The write-ahead plan journal: serialization, backends, recovery —
and what it shares with the audit log: one record type, one append-only
file, one restore."""

import datetime
import json
import tracemalloc

import pytest

import repro.relational.journal as journal_module
from repro.errors import AuditError, JournalError
from repro.obs import audit as audit_module
from repro.obs.context import TraceContext, attach
from repro.relational.ddl import relation
from repro.relational.journal import (
    ABORTED,
    COMMITTED,
    PENDING,
    FileJournal,
    MemoryJournal,
    RecoveryReport,
    UpdateRecord,
    plan_images,
    recover,
    restore_images,
)
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import Delete, Insert, Replace, UpdatePlan
from tests.journal_harness import apply_journaled, resolved

ITEMS = (
    relation("ITEMS")
    .integer("item_id")
    .text("label")
    .date("added", nullable=True)
    .key("item_id")
    .build()
)
TAGS = relation("TAGS").integer("tag_id").text("name").key("tag_id").build()


def make_engine():
    engine = MemoryEngine()
    engine.create_relation(ITEMS)
    engine.create_relation(TAGS)
    engine.insert("ITEMS", (1, "one", datetime.date(2020, 1, 2)))
    engine.insert("ITEMS", (2, "two", None))
    engine.insert("TAGS", (10, "old"))
    return engine


def sample_plan():
    plan = UpdatePlan()
    plan.add(Insert("ITEMS", (3, "three", datetime.date(2021, 3, 4))), "grow")
    plan.add(Replace("TAGS", (10,), (10, "new")), "rename")
    plan.add(Delete("ITEMS", (2,)), "shrink")
    return plan


class TestRoundTrip:
    def test_plan_survives_encode_decode(self):
        journal = MemoryJournal()
        engine = make_engine()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan), label="t")
        decoded = journal.entry(entry_id).plan()
        assert decoded.operations == plan.operations
        assert decoded.reasons == plan.reasons

    def test_dates_round_trip_through_json(self):
        journal = MemoryJournal()
        engine = make_engine()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        entry = journal.entry(entry_id)
        # The stored records must themselves be JSON-safe.
        json.dumps(entry.plan_records)
        json.dumps(entry.image_records)
        op = entry.plan().operations[0]
        assert op.values[2] == datetime.date(2021, 3, 4)
        _before, after = entry.images()[("ITEMS", (3,))]
        assert after == (3, "three", datetime.date(2021, 3, 4))


class TestImages:
    def test_plan_images_cover_every_cell(self):
        engine = make_engine()
        images = plan_images(engine, sample_plan())
        assert images[("ITEMS", (3,))] == (
            None,
            (3, "three", datetime.date(2021, 3, 4)),
        )
        assert images[("TAGS", (10,))] == ((10, "old"), (10, "new"))
        assert images[("ITEMS", (2,))] == ((2, "two", None), None)

    def test_key_changing_replace_makes_two_cells(self):
        engine = make_engine()
        plan = UpdatePlan()
        plan.add(Replace("TAGS", (10,), (11, "moved")))
        images = plan_images(engine, plan)
        assert images[("TAGS", (10,))] == ((10, "old"), None)
        assert images[("TAGS", (11,))] == (None, (11, "moved"))


class TestBackends:
    def test_status_lifecycle(self):
        journal = MemoryJournal()
        engine = make_engine()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        assert journal.verdict(entry_id) == PENDING
        assert [e.id for e in journal.pending()] == [entry_id]
        journal.mark_committed(entry_id)
        assert journal.verdict(entry_id) == COMMITTED
        assert journal.pending() == []
        with pytest.raises(JournalError):
            journal.mark_committed(999)

    def test_a_verdict_outlives_its_entry(self):
        """A resolved entry is dropped; its verdict is kept by the id
        counter and the set of aborted ids."""
        journal = MemoryJournal()
        committed, aborted, pending = [
            journal.begin(sample_plan(), {}) for _ in range(3)
        ]
        journal.mark_committed(committed)
        journal.mark_aborted(aborted)
        assert [e.id for e in journal.entries()] == [pending]
        assert [journal.verdict(i) for i in (committed, aborted, pending)] == [
            COMMITTED, ABORTED, PENDING,
        ]
        assert journal.verdict(0) is journal.verdict(4) is None
        assert journal.counts() == {PENDING: 1, COMMITTED: 1, ABORTED: 1}
        assert len(journal) == 3
        with pytest.raises(JournalError, match="unknown"):
            journal.mark_aborted(committed)

    def test_a_resolved_two_phase_entry_leaves_a_stub(self):
        journal = MemoryJournal()
        entry_id = journal.begin(sample_plan(), {}, label="2pc:t1:2:0")
        journal.mark_committed(entry_id)
        (stub,) = journal.entries()
        assert (stub.id, stub.label, stub.state) == (entry_id, "2pc:t1:2:0", COMMITTED)
        assert stub.plan_records == stub.image_records == []

    def test_committed_writes_leave_no_payload_held(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        images = plan_images(engine, plan)
        tracemalloc.start()
        try:
            for _ in range(10_000):
                journal.mark_committed(journal.begin(plan, images))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert journal.entries() == [] and len(journal) == 10_000
        assert retained < 2**16

    def test_file_journal_reload_folds_markers(self, tmp_path):
        path = tmp_path / "plans.journal"
        engine = make_engine()
        journal = FileJournal(path)
        first = journal.begin(sample_plan(), plan_images(engine, sample_plan()))
        journal.mark_committed(first)
        second = journal.begin(sample_plan(), plan_images(engine, sample_plan()))
        journal.close()  # `second` left PENDING, like a crash

        reopened = FileJournal(path)
        assert len(reopened) == 2
        assert reopened.verdict(first) == COMMITTED
        assert reopened.verdict(second) == PENDING
        # Ids keep increasing after reload.
        third = reopened.begin(sample_plan(), {})
        assert third > second
        reopened.close()

    def test_file_journal_rejects_corruption(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text("not json\n")
        with pytest.raises(JournalError):
            FileJournal(path)
        path.write_text('{"event":"committed","id":7}\n')
        with pytest.raises(JournalError):
            FileJournal(path)


class TestRecovery:
    def test_committed_entries_are_ignored(self):
        engine = make_engine()
        journal = MemoryJournal()
        apply_journaled(engine, journal, sample_plan())
        report = recover(engine, journal)
        assert resolved(report) == 0
        assert report.clean

    def test_completed_pending_entry_is_marked_committed(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        engine.apply_batch(plan.operations)  # applied, but marker lost
        report = recover(engine, journal)
        assert report.replayed == [entry_id]
        assert journal.verdict(entry_id) == COMMITTED
        assert engine.get("TAGS", (10,)) == (10, "new")

    def test_torn_plan_is_reverted(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        # Apply only a prefix: the classic torn state.
        plan.operations[0].apply(engine)
        plan.operations[1].apply(engine)
        report = recover(engine, journal)
        assert report.reverted == [entry_id]
        assert journal.verdict(entry_id) == ABORTED
        assert engine.get("ITEMS", (3,)) is None
        assert engine.get("TAGS", (10,)) == (10, "old")
        assert engine.get("ITEMS", (2,)) == (2, "two", None)

    def test_recover_is_idempotent(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        journal.begin(plan, plan_images(engine, plan))
        plan.operations[0].apply(engine)
        assert resolved(recover(engine, journal)) == 1
        again = recover(engine, journal)
        assert resolved(again) == 0
        assert again.clean

    def test_intermediate_value_of_multi_touch_plan_is_reverted(self):
        """Crash between two ops on the same cell: the live value
        matches neither net image, but it IS on the plan's simulated
        value chain — recovery must revert it, not call it a conflict."""
        engine = make_engine()
        journal = MemoryJournal()
        plan = UpdatePlan()
        plan.add(Insert("TAGS", (30, "first")))
        plan.add(Replace("TAGS", (30,), (30, "second")))
        entry_id = journal.begin(plan, plan_images(engine, plan))
        plan.operations[0].apply(engine)  # crash before the replace
        report = recover(engine, journal)
        assert report.clean
        assert report.reverted == [entry_id]
        assert engine.get("TAGS", (30,)) is None

    def test_foreign_write_is_a_conflict_not_clobbered(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = UpdatePlan()
        plan.add(Replace("TAGS", (10,), (10, "new")))
        entry_id = journal.begin(plan, plan_images(engine, plan))
        # Someone else wrote a third value after the crash.
        engine.replace("TAGS", (10,), (10, "foreign"))
        report = recover(engine, journal)
        assert report.conflicts == [(entry_id, "TAGS", (10,))]
        assert not report.clean
        assert engine.get("TAGS", (10,)) == (10, "foreign")

    def test_open_transaction_is_discarded_first(self):
        engine = make_engine()
        journal = MemoryJournal()
        engine.begin()
        engine.insert("TAGS", (99, "uncommitted"))
        report = recover(engine, journal)
        assert report.transactions_discarded == 1
        assert not engine.in_transaction
        assert engine.get("TAGS", (99,)) is None

    def test_report_as_dict(self):
        report = RecoveryReport()
        report.replayed.append(1)
        assert report.as_dict()["replayed"] == [1]
        assert report.clean


# -- one log contract: {journal, audit} x {memory, file} ----------------------


class JournalUnderTest:
    """The journal, driven through the verbs both logs have."""

    name = "journal"
    error = JournalError
    memory, file = MemoryJournal, FileJournal
    fresh, settled = PENDING, COMMITTED
    marker = '{"event":"committed","id":%d}'
    # a PENDING event without its plan
    incomplete = '{"event":"pending","id":1,"label":"t","images":[]}'
    numbered = '"id":%d,'
    kept = 0  # bytes a reopened log retains per settled record

    @staticmethod
    def add(log):
        return log.begin(sample_plan(), {}, label="t")

    @staticmethod
    def settle(log, record_id):
        log.mark_committed(record_id)

    @staticmethod
    def records(log):
        return log.entries()

    @staticmethod
    def verdicts(log):
        return [(n, log.verdict(n)) for n in range(1, len(log) + 1)]


class AuditUnderTest:
    name = "audit"
    error = AuditError
    memory, file = audit_module.MemoryAuditLog, audit_module.FileAuditLog
    fresh, settled = audit_module.CRASHED, audit_module.COMMITTED
    marker = '{"event":"resolve","asn":%d,"outcome":"committed"}'
    # a record event without its object
    incomplete = (
        '{"event":"record","asn":1,"op":"insert","outcome":"committed",'
        '"plan":[],"images":[]}'
    )
    numbered = '"asn":%d,'
    kept = 300

    @staticmethod
    def add(log):
        return log.append("insert", "t", audit_module.CRASHED, plan=sample_plan())

    @staticmethod
    def settle(log, record_id):
        log.resolve(record_id, audit_module.COMMITTED)

    @staticmethod
    def records(log):
        return log.records()

    @staticmethod
    def verdicts(log):
        return [(record.id, record.state) for record in log.records()]


LOGS = pytest.mark.parametrize(
    "kind", [JournalUnderTest, AuditUnderTest], ids=lambda kind: kind.name
)


def shape(kind, log):
    return kind.verdicts(log)


@LOGS
class TestLogContract:
    """What the journal and the audit log promise alike — because the
    record, the file and the fold are the same code (drift bugs 8, 9)."""

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_records_keep_append_order_under_interleaved_markers(
        self, kind, backend, tmp_path
    ):
        path = tmp_path / "log.jsonl"
        log = kind.memory() if backend == "memory" else kind.file(path)
        ids = [kind.add(log) for _ in range(3)]
        kind.settle(log, ids[2])
        ids += [kind.add(log), kind.add(log)]
        kind.settle(log, ids[0])
        kind.settle(log, ids[3])
        assert ids == [1, 2, 3, 4, 5]
        expected = [
            (1, kind.settled), (2, kind.fresh), (3, kind.settled),
            (4, kind.settled), (5, kind.fresh),
        ]
        assert shape(kind, log) == expected
        assert all(isinstance(r, UpdateRecord) for r in kind.records(log))
        log.close()
        if backend == "file":
            reopened = kind.file(path)
            assert shape(kind, reopened) == expected  # the markers folded
            assert kind.add(reopened) == 6  # ids continue past the watermark
            reopened.close()

    def test_marker_for_an_unknown_id_raises(self, kind):
        with pytest.raises(kind.error, match="unknown"):
            kind.settle(kind.memory(), 7)

    def test_trace_id_survives_reload(self, kind, tmp_path):
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        with attach(TraceContext("ab" * 16)):
            traced = kind.add(log)
        plain = kind.add(log)
        log.close()
        reopened = kind.file(path)
        by_id = {record.id: record for record in kind.records(reopened)}
        assert by_id[traced].trace_id == "ab" * 16
        assert by_id[plain].trace_id is None
        reopened.close()

    def test_torn_tail_is_truncated_and_the_next_append_is_intact(
        self, kind, tmp_path
    ):
        """The process died mid-append: the final line has no newline.
        It is dropped, everything before it loads, and the next append
        lands on a line of its own."""
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        first = kind.add(log)
        kind.settle(log, first)
        second = kind.add(log)
        log.close()
        intact = path.read_bytes()
        # Torn after any prefix of a real line, even one that parses.
        for torn in (b'{"event":"pe', kind.incomplete.encode(), b"   "):
            path.write_bytes(intact + torn)
            reopened = kind.file(path)
            assert shape(kind, reopened) == [
                (first, kind.settled), (second, kind.fresh),
            ]
            assert path.read_bytes() == intact
            reopened.close()
        reopened = kind.file(path)
        third = kind.add(reopened)
        reopened.close()
        assert third == second + 1
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line) for line in lines)

    @pytest.mark.parametrize(
        "damage",
        ["garbage", "incomplete", "unknown_id", "unknown_event", "not_an_object"],
    )
    @pytest.mark.parametrize("where", ["middle", "newline_terminated_tail"])
    def test_damage_raises_the_logs_own_error_with_path_and_line(
        self, kind, damage, where, tmp_path
    ):
        """Only a tail *without* its newline is a torn append; a whole
        damaged line — anywhere — is damage, and never a bare KeyError."""
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        kind.add(log)
        kind.add(log)
        log.close()
        good = path.read_text().splitlines()
        bad = {
            "garbage": good[1][:-5],
            "incomplete": kind.incomplete,
            "unknown_id": kind.marker % 99,
            "unknown_event": '{"event":"gibberish","id":1,"asn":1}',
            "not_an_object": "[1, 2]",
        }[damage]
        if where == "middle":
            lines, line_no = [good[0], bad, good[1]], 2
        else:
            lines, line_no = [good[0], good[1], bad], 3
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        with pytest.raises(kind.error) as caught:
            kind.file(path)
        assert f"{path}:{line_no}: " in str(caught.value)
        assert path.read_bytes() == before  # nothing was truncated

    def test_a_file_that_ends_on_a_newline_is_left_whole(self, kind, tmp_path):
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        first = kind.add(log)
        kind.settle(log, first)
        log.close()
        whole = path.read_bytes()
        assert whole.endswith(b"\n")
        reopened = kind.file(path)
        assert shape(kind, reopened) == [(first, kind.settled)]
        assert path.read_bytes() == whole
        assert kind.add(reopened) == first + 1
        reopened.close()
        assert path.read_bytes().startswith(whole)

    def test_a_file_that_is_only_a_torn_line_opens_empty(self, kind, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"event":"pe')
        log = kind.file(path)
        assert shape(kind, log) == []
        assert path.read_bytes() == b""
        assert kind.add(log) == 1
        log.close()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)

    def test_reopening_holds_one_line_at_a_time(self, kind, tmp_path):
        """Reopening a multi-MB file allocates what it keeps plus a
        small bound; a reader of the whole file holds it several times
        over."""
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        kind.add(log)
        log.close()
        line = path.read_text()
        count = 12_000
        with open(path, "w") as f:
            for n in range(1, count + 1):
                f.write(line.replace(kind.numbered % 1, kind.numbered % n, 1))
        assert path.stat().st_size > 3 * 2**20
        tracemalloc.start()
        try:
            reopened = kind.file(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.id for r in kind.records(reopened)] == list(range(1, count + 1))
        assert peak - retained < 2**20
        reopened.close()

    def test_a_reopened_log_retains_only_what_it_must(self, kind, tmp_path):
        """Reopened, a settled record costs the journal nothing and the
        audit log its small fields: plans and images stay in the file,
        whatever the record count."""
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        kind.add(log)
        log.close()
        line = path.read_text()
        for count in (2_000, 10_000):
            with open(path, "w") as f:
                for n in range(1, count + 1):
                    f.write(line.replace(kind.numbered % 1, kind.numbered % n, 1))
                    f.write(kind.marker % n + "\n")
            tracemalloc.start()
            try:
                reopened = kind.file(path)
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert shape(kind, reopened) == [(n, kind.settled) for n in range(1, count + 1)]
            assert retained < kind.kept * count + 2**16, (count, retained)
            reopened.close()
        assert path.stat().st_size > 3 * 2**20

    def test_blank_lines_are_skipped(self, kind, tmp_path):
        path = tmp_path / "log.jsonl"
        log = kind.file(path)
        kind.add(log)
        log.close()
        path.write_text("\n" + path.read_text() + "\n  \n")
        reopened = kind.file(path)
        assert shape(kind, reopened) == [(1, kind.fresh)]
        reopened.close()


# -- one restore ---------------------------------------------------------------

OLD, NEW, MID, FOREIGN = (10, "old"), (10, "new"), (10, "mid"), (10, "foreign")

# name -> (plan operations, {cell: (before, after)})
RESTORE_CASES = {
    "insert": ([Insert("TAGS", (30, "in"))], {(30,): (None, (30, "in"))}),
    "delete": ([Delete("TAGS", (10,))], {(10,): (OLD, None)}),
    "replace": ([Replace("TAGS", (10,), NEW)], {(10,): (OLD, NEW)}),
    "rekey": (
        [Replace("TAGS", (10,), (11, "moved"))],
        {(10,): (OLD, None), (11,): (None, (11, "moved"))},
    ),
}


def plan_of(operations):
    plan = UpdatePlan()
    for operation in operations:
        plan.add(operation)
    return plan


def tags(engine):
    return {row[0]: row for row in engine.scan("TAGS")}


class TestRestoreImages:
    @pytest.mark.parametrize("to_after", [False, True], ids=["to_before", "to_after"])
    @pytest.mark.parametrize("start", ["before", "after"])
    @pytest.mark.parametrize("case", sorted(RESTORE_CASES))
    def test_every_cell_ends_at_the_asked_image(self, case, start, to_after):
        operations, cells = RESTORE_CASES[case]
        engine = make_engine()
        plan = plan_of(operations)
        images = plan_images(engine, plan)
        assert images == {("TAGS", key): pair for key, pair in cells.items()}
        if start == "after":
            engine.apply_batch(plan.operations)
        assert restore_images(engine, images, to_after=to_after) == []
        for key, (before, after) in cells.items():
            assert engine.get("TAGS", key) == (after if to_after else before)
        assert not engine.in_transaction

    @pytest.mark.parametrize("to_after", [False, True], ids=["to_before", "to_after"])
    def test_a_foreign_write_is_left_alone_and_reported(self, to_after):
        engine = make_engine()
        plan = plan_of(
            [Replace("TAGS", (10,), NEW), Insert("TAGS", (30, "in"))]
        )
        images = plan_images(engine, plan)
        engine.apply_batch(plan.operations)
        engine.replace("TAGS", (10,), FOREIGN)
        conflicts = restore_images(engine, images, to_after=to_after, plan=plan)
        assert conflicts == [("TAGS", (10,))]
        assert engine.get("TAGS", (10,)) == FOREIGN
        # ...while the cell nobody else wrote is still driven home.
        expected = (30, "in") if to_after else None
        assert engine.get("TAGS", (30,)) == expected

    @pytest.mark.parametrize("to_after", [False, True], ids=["to_before", "to_after"])
    def test_an_intermediate_value_needs_the_plan_to_be_recognised(
        self, to_after
    ):
        """A multi-touch plan interrupted between two operations on one
        cell: with the plan the value is the update's own and is moved;
        from the two net images alone it is indistinguishable from a
        foreign write."""
        plan = plan_of(
            [Replace("TAGS", (10,), MID), Replace("TAGS", (10,), NEW)]
        )
        engine = make_engine()
        images = plan_images(engine, plan)
        assert images == {("TAGS", (10,)): (OLD, NEW)}
        plan.operations[0].apply(engine)
        assert restore_images(engine, images, to_after) == [("TAGS", (10,))]
        assert engine.get("TAGS", (10,)) == MID
        assert restore_images(engine, images, to_after, plan=plan) == []
        assert engine.get("TAGS", (10,)) == (NEW if to_after else OLD)

    def test_a_failing_restore_rolls_its_transaction_back(self):
        engine = make_engine()
        images = {
            ("TAGS", (10,)): (OLD, None),
            ("NOWHERE", (1,)): (None, (1,)),
        }
        with pytest.raises(Exception):
            restore_images(engine, images, to_after=True)
        assert not engine.in_transaction
        assert tags(engine) == {10: OLD}

    def test_recover_restores_through_restore_images(self, monkeypatch):
        calls = []

        def spy(engine, images, to_after, plan=None):
            calls.append((sorted(images), to_after, plan is not None))
            return restore_images(engine, images, to_after, plan=plan)

        monkeypatch.setattr(journal_module, "restore_images", spy)
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        journal.begin(plan, plan_images(engine, plan))
        plan.operations[0].apply(engine)
        assert recover(engine, journal).reverted == [1]
        assert calls == [(sorted(plan_images(engine, plan)), False, True)]
        assert engine.get("ITEMS", (3,)) is None
