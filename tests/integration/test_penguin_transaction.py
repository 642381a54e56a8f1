"""Atomic multi-operation sessions via Penguin.transaction().

A block is a batch: its verbs translate over one overlay of the engine,
its reads see that overlay, and a clean exit lands the verbs' plan as one
journaled, audited update (DESIGN.md "Write path", "A transaction is a
batch"). The block's new guarantees are pinned on memory and on sqlite.
"""

import contextlib

import pytest

from repro.core.updates.operations import CompleteDeletion
from repro.errors import (
    TransactionError,
    UpdateError,
    UpdateRejectedError,
    ViewObjectError,
)
from repro.obs.audit import COMMITTED, ROLLED_BACK, MemoryAuditLog
from repro.obs.history import snapshot
from repro.penguin import Penguin
from repro.relational import journal as journal_states
from repro.relational.faults import (
    FaultRule,
    FaultInjectingEngine,
    FaultPlan,
    SimulatedCrash,
)
from repro.workloads.figures import alternate_course_object, course_info_object
from repro.workloads.university import populate_university, university_schema

from tests.conftest import make_engine
from tests.journal_harness import RecordingJournal, resolved

BACKENDS = ["memory", "sqlite"]


def university(backend, wrap=None, journal=None):
    """A populated university session with a journal and an audit log;
    ``wrap`` turns the populated engine into the one the session uses."""
    graph = university_schema()
    engine = make_engine(backend)
    graph.install(engine)
    populate_university(engine)
    session = Penguin(
        graph,
        engine=engine if wrap is None else wrap(engine),
        install=False,
        journal=RecordingJournal() if journal is None else journal,
        audit=MemoryAuditLog(),
    )
    session.register_object(course_info_object(session.graph))
    return session


@pytest.fixture
def penguin(request):
    """The session on memory, or on the backend ``ON_BOTH`` passes."""
    return university(getattr(request, "param", "memory"))


ON_BOTH = pytest.mark.parametrize("penguin", BACKENDS, indirect=True)


def some_courses(penguin, n):
    return sorted(v[0] for v in penguin.engine.scan("COURSES"))[:n]


def clash(course_id):
    """A course_info insert whose pivot already exists."""
    return {
        "course_id": course_id,
        "title": "clash",
        "units": 1,
        "level": "graduate",
        "dept_name": "Physics",
    }


def test_commit_on_success(penguin):
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        penguin.delete("course_info", (second,))
    assert penguin.engine.get("COURSES", (first,)) is None
    assert penguin.engine.get("COURSES", (second,)) is None


def test_rollback_on_error(penguin):
    first, second = some_courses(penguin, 2)
    before = snapshot(penguin.engine)
    with pytest.raises(UpdateRejectedError):
        with penguin.transaction():
            penguin.delete("course_info", (first,))
            # Second operation fails: identical pivot already exists.
            penguin.insert("course_info", clash(second))
    # The earlier deletion never landed either.
    assert snapshot(penguin.engine) == before
    assert penguin.is_consistent()


def test_rollback_never_reaches_the_cache(penguin):
    """No stale instance survives an aborted block, and none is dropped:
    inside the block a read goes to the block's overlay (so it sees the
    uncommitted deletion) and leaves the cache alone, and the engine
    never sees the deletion, so the cache is handed nothing."""
    view = penguin.materialize("course_info")
    before = {i.key: i.to_dict() for i in penguin.query("course_info")}
    cached = len(view)
    first, second = some_courses(penguin, 2)
    with pytest.raises(UpdateRejectedError):
        with penguin.transaction():
            penguin.delete("course_info", (first,))
            assert (first,) not in {i.key for i in penguin.query("course_info")}
            assert penguin.get("course_info", (first,)) is None
            penguin.insert("course_info", clash(second))
    assert len(view) == cached
    hits = view.stats.hits
    assert penguin.get("course_info", (first,)) is not None
    assert view.stats.hits == hits + 1
    after = {i.key: i.to_dict() for i in penguin.query("course_info")}
    assert after == before
    assert view.staleness() == 0


def test_a_read_inside_a_transaction_shows_its_write_and_caches_nothing(penguin):
    view = penguin.materialize("course_info")
    penguin.query("course_info")
    cached = len(view)
    first = some_courses(penguin, 1)[0]
    title = penguin.get("course_info", (first,)).root.values["title"]
    with pytest.raises(RuntimeError):
        with penguin.transaction():
            new = penguin.get("course_info", (first,)).to_dict()
            penguin.replace("course_info", (first,), {**new, "title": "Uncommitted"})
            instance = penguin.get("course_info", (first,))
            assert instance.root.values["title"] == "Uncommitted"
            raise RuntimeError("abort")
    assert len(view) == cached
    hits = view.stats.hits
    assert penguin.get("course_info", (first,)).root.values["title"] == title
    assert view.stats.hits == hits + 1
    assert view.stats.patched == view.stats.invalidations == 0


def test_commit_keeps_materialized_cache_consistent(penguin):
    penguin.materialize("course_info")
    first, second = some_courses(penguin, 2)
    penguin.query("course_info")
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        penguin.delete("course_info", (second,))
    keys = {i.key for i in penguin.query("course_info")}
    assert (first,) not in keys and (second,) not in keys
    assert keys == {
        (v[0],) for v in penguin.engine.scan("COURSES")
    }


def test_swap_pattern(penguin):
    """Move all grades of one course onto a fresh course atomically."""
    cid = next(
        v[0]
        for v in penguin.engine.scan("COURSES")
        if penguin.engine.find_by("GRADES", ("course_id",), (v[0],))
    )
    old = penguin.get("course_info", (cid,))
    with penguin.transaction():
        new = old.to_dict()
        new["course_id"] = "SWAP1"
        for grade in new.get("GRADES", []):
            grade["course_id"] = "SWAP1"
        for entry in new.get("CURRICULUM", []):
            entry["course_id"] = "SWAP1"
        penguin.replace("course_info", old, new)
    assert penguin.engine.get("COURSES", ("SWAP1",)) is not None
    assert penguin.is_consistent()


# -- one block, one record -------------------------------------------------------


@ON_BOTH
def test_a_committed_block_is_one_journal_entry_and_one_audit_record(penguin):
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        one = penguin.delete("course_info", (first,))
        two = penguin.delete("course_info", (second,))
    (entry,) = penguin.journal.journaled()
    assert entry.state == journal_states.COMMITTED
    (record,) = penguin.audit.records()
    assert (record.op, record.state, record.items) == ("transaction", COMMITTED, 2)
    assert record.label == "course_info"
    assert record.plan().operations == one.operations + two.operations
    assert record.plan_records == entry.plan_records


@ON_BOTH
def test_a_committed_block_shows_in_the_trail(penguin):
    """``audit tail``, ``why()``, ``as_of(0)`` and ``replay_audit()`` all
    see the block: the seed's COURSES come back at ASN 0."""
    seeded = len(list(penguin.engine.scan("COURSES")))
    assert seeded == 20
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        penguin.delete("course_info", (second,))
    (record,) = penguin.audit.tail(1)
    assert "transaction" in record.describe()
    for course in (first, second):
        (link,) = penguin.why("COURSES", (course,))
        assert link.asn == record.id
    assert len(penguin.as_of(0, relation="COURSES")) == seeded
    assert len(penguin.as_of(record.id, relation="COURSES")) == seeded - 2
    report = penguin.replay_audit()
    assert report.ok and report.replayed == [record.id]


@ON_BOTH
@pytest.mark.parametrize("how", ["aborted", "empty", "selected nothing"])
def test_an_aborted_or_empty_block_lands_nothing(penguin, how):
    before = snapshot(penguin.engine)
    first = some_courses(penguin, 1)[0]
    with pytest.raises(RuntimeError) if how == "aborted" else contextlib.nullcontext():
        with penguin.transaction():
            if how == "aborted":
                penguin.delete("course_info", (first,))
                raise RuntimeError("abort")
            if how == "selected nothing":
                penguin.delete_where("course_info", "course_id = 'NO-SUCH'")
    assert snapshot(penguin.engine) == before
    assert penguin.journal.journaled() == []
    assert len(penguin.audit) == 0


@ON_BOTH
def test_a_rejected_verb_is_audited_and_the_block_goes_on(penguin):
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        with pytest.raises(UpdateRejectedError):
            penguin.insert("course_info", clash(second))
        with pytest.raises(UpdateError):
            penguin.delete("course_info", ("NO-SUCH",))
        # The overlay is as the first delete left it.
        assert penguin.get("course_info", (first,)) is None
        assert penguin.get("course_info", (second,)) is not None
        penguin.delete("course_info", (second,))
    outcomes = [(r.op, r.state) for r in penguin.audit.records()]
    assert outcomes == [
        ("insert", ROLLED_BACK), ("delete", ROLLED_BACK),
        ("transaction", COMMITTED),
    ]
    assert len(penguin.journal.journaled()) == 1
    assert penguin.engine.get("COURSES", (first,)) is None
    assert penguin.engine.get("COURSES", (second,)) is None
    assert penguin.replay_audit().ok


@ON_BOTH
def test_a_verb_on_a_second_view_object_is_refused(penguin):
    penguin.register_object(alternate_course_object(penguin.graph))
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        # Reading another object is fine; writing it is not.
        assert penguin.get("course_staffing", (first,)) is None
        with pytest.raises(ViewObjectError, match="course_staffing"):
            penguin.delete("course_staffing", (second,))
    assert penguin.engine.get("COURSES", (second,)) is not None
    (record,) = penguin.audit.records()
    assert record.label == "course_info"


@ON_BOTH
def test_a_nested_block_joins_the_outer_one(penguin):
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        with penguin.transaction():
            penguin.delete("course_info", (second,))
        assert penguin.engine.get("COURSES", (second,)) is not None
        assert penguin.journal.journaled() == []
    assert penguin.engine.get("COURSES", (first,)) is None
    assert penguin.engine.get("COURSES", (second,)) is None
    (record,) = penguin.audit.records()
    assert record.items == 2


@ON_BOTH
def test_the_exit_refuses_an_engine_that_moved(penguin):
    """A raw write while the block is open is not part of it, and the
    overlay's memoized reads may be stale: the exit lands nothing."""
    first, second = some_courses(penguin, 2)
    with pytest.raises(TransactionError, match="changed"):
        with penguin.transaction():
            penguin.delete("course_info", (first,))
            penguin.engine.delete("GRADES", next(
                row[:2] for row in penguin.engine.scan("GRADES")
            ))
    assert penguin.engine.get("COURSES", (first,)) is not None
    assert penguin.journal.journaled() == []
    assert len(penguin.audit) == 0


@ON_BOTH
def test_every_session_read_in_a_block_reads_the_overlay(penguin):
    """``get``, ``query``, ``explain_update``, ``check_integrity`` and
    ``is_consistent`` see the block's writes; the engine does not."""
    doomed, other = some_courses(penguin, 2)
    schema = penguin.engine.schema("COURSES")
    row = list(penguin.engine.get("COURSES", (doomed,)))
    row[schema.attribute_names.index("dept_name")] = "Nowhere"
    penguin.engine.replace("COURSES", (doomed,), tuple(row))  # dangling
    assert not penguin.is_consistent()
    with pytest.raises(RuntimeError):
        with penguin.transaction():
            penguin.delete("course_info", (doomed,))
            assert penguin.get("course_info", (doomed,)) is None
            keys = {i.key for i in penguin.query("course_info")}
            assert (doomed,) not in keys and (other,) in keys
            assert (doomed,) not in {
                i.key for i in penguin.query("course_info", "units > 0")
            }
            with pytest.raises(UpdateError, match="no instance"):
                penguin.explain_update("course_info", CompleteDeletion((doomed,)))
            assert penguin.explain_update(
                "course_info", CompleteDeletion((other,))
            ).plan.operations
            assert penguin.check_integrity() == []
            assert penguin.is_consistent()
            raise RuntimeError("abort")
    assert penguin.get("course_info", (doomed,)) is not None
    assert not penguin.is_consistent()


# -- a crash while the exit lands --------------------------------------------------


def crashing_university(backend, k):
    """A university session whose engine dies at its ``k``-th mutation."""
    return university(
        backend,
        wrap=lambda engine: FaultInjectingEngine(
            engine, FaultPlan().add(FaultRule("crash", ("mutation",), at=k))
        ),
    )


def delete_two_in_a_block(penguin):
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        penguin.delete("course_info", (second,))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_crash_while_the_exit_lands_is_settled_by_recover(backend):
    """A crash at any mutation of the landing: recovery reverts the one
    entry, so none of the block's writes survive, and the audit record
    is settled rolled back. One mutation past the landing, all of it
    stands. Nothing else in the block mutates the engine."""
    plain = university(backend)
    delete_two_in_a_block(plain)
    (landed,) = plain.audit.records()
    landing = len(landed.plan())
    for k in range(1, landing + 1):
        penguin = crashing_university(backend, k)
        before = snapshot(penguin.engine)
        with pytest.raises(SimulatedCrash):
            delete_two_in_a_block(penguin)
        penguin.recover()
        assert snapshot(penguin.engine) == before, k
        (entry,) = penguin.journal.journaled()
        assert entry.state == journal_states.ABORTED
        (record,) = penguin.audit.records()
        assert record.state == ROLLED_BACK
        assert penguin.replay_audit().ok
    penguin = crashing_university(backend, landing + 1)
    before = snapshot(penguin.engine)
    delete_two_in_a_block(penguin)
    assert resolved(penguin.recover()) == 0
    (record,) = penguin.audit.records()
    assert record.state == COMMITTED
    assert snapshot(penguin.engine) == snapshot(plain.engine) != before
    assert penguin.replay_audit().ok


# -- raw writes and the seed the log vouches for ------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_raw_write_after_the_first_audited_update_fails_replay(backend):
    """``as_of(0)`` is the live head run backwards, so a raw delete on a
    cell no record touches is in it; the seed digest the log took before
    its first record is not."""
    penguin = university(backend)
    penguin.delete("course_info", (some_courses(penguin, 1)[0],))
    assert penguin.replay_audit().ok
    penguin.engine.delete("DEPARTMENT", next(penguin.engine.scan("DEPARTMENT"))[:1])
    report = penguin.replay_audit()
    assert not report.ok
    assert report.mismatches == [] and report.unvouched
    assert "vouched" in report.summary()
