"""The commit contract, once, for every write entry point.

Every write path ends in the same step — journal PENDING, land the
plan, status marker, audit record — so one table states what each
entry point must leave behind under each fault: the journal entry's
status, the audit outcome, the translation counters, and the engine
state. Each row is the request (or request batch) a session verb hands
the translator. The eager door (``apply``: ``insert``, ``replace``)
applies tuples while translating, so an ``Exception`` at the first
mutation strikes before any intent is journaled; a batch write (the
overlay half ``explain_batch`` with ``op=``, then ``apply_plan``, as
the session composes them) touches the engine only inside the commit
step.
"""

import pytest

import repro.obs as obs
from repro.core.query import execute_query
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.errors import TransactionError, TransientEngineError
from repro.obs.audit import MemoryAuditLog
from repro.relational.faults import FaultInjectingEngine, FaultPlan, FaultRule, SimulatedCrash
from repro.relational.journal import (
    ABORTED,
    COMMITTED,
    PENDING,
    recover,
)
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.university import populate_university
from tests.conftest import batch_write
from tests.journal_harness import RecordingJournal

pytestmark = pytest.mark.audit

SEEDED = ("CS901", "CS902")


def course(course_id, title="View Objects"):
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


def run_insert(t, engine):
    t.apply(engine, CompleteInsertion(course("CS999")), "insert")


def run_replace(t, engine):
    t.apply(engine, Replacement(("CS901",), course("CS901", title="Replaced")), "replace")


def run_insert_many(t, engine):
    requests = [CompleteInsertion(course(c)) for c in ("CS990", "CS991")]
    batch_write(t, engine, requests, op="insert")


def run_apply_plan_batch(t, engine):
    batch_write(
        t,
        engine,
        [
            CompleteInsertion(t._coerce_instance(course("CS990"))),
            CompleteDeletion(t.instantiate(engine, ("CS901",))),
        ],
    )


def run_apply_plan(t, engine):
    # The sharded write: translate half on the owner, then the commit.
    request = CompleteInsertion(t._coerce_instance(course("CS999")))
    plan = t.explain_batch(engine, [request], op="insert").plan
    t.apply_plan(engine, plan, op="insert")


def run_delete_where(t, engine):
    # What the session's delete_where does: select, then one batch.
    matches = execute_query(t.view_object, engine, "title = 'View Objects'")
    batch_write(
        t, engine, [CompleteDeletion(i) for i in matches], op="delete_where"
    )


# entry point -> (translate half, op label, items, call)
ENTRY_POINTS = {
    "insert": ("eager", "insert", 1, run_insert),
    "replace": ("eager", "replace", 1, run_replace),
    "insert_many": ("overlay", "insert", 2, run_insert_many),
    "apply_plan_batch": ("overlay", "batch", 2, run_apply_plan_batch),
    "apply_plan": ("overlay", "insert", 1, run_apply_plan),
    "delete_where": ("overlay", "delete_where", len(SEEDED), run_delete_where),
}

# fault -> (rule, raised, journal status, audit outcome, translations, failures)
FAULTS = {
    "none": (None, None, COMMITTED, "committed", 1, 0),
    "exception-at-apply": (
        lambda plan: plan.add(FaultRule("transient", ("mutation",), at=1)),
        TransientEngineError,
        {"eager": None, "overlay": ABORTED},
        "rolled_back", 0, 1,
    ),
    "exception-at-commit": (
        lambda plan: plan.add(FaultRule("transient", ("commit",), at=1)),
        TransactionError, ABORTED, "rolled_back", 0, 1,
    ),
    "crash-at-commit": (
        lambda plan: plan.add(FaultRule("crash", ("commit",), at=1)),
        SimulatedCrash, PENDING, "crashed", 0, 0,
    ),
}


def snapshot(engine):
    return {name: set(engine.scan(name)) for name in engine.relation_names()}


@pytest.fixture
def stack(omega, university_engine):
    """A journaled + audited translator over a fault-injecting engine,
    seeded (fault-free, unlogged) with the rows the entry points use."""
    seeder = Translator(omega)
    for course_id in SEEDED:
        seeder.apply(university_engine, CompleteInsertion(course(course_id)), "insert")
    plan = FaultPlan(seed=1)
    engine = FaultInjectingEngine(university_engine, plan)
    translator = Translator(
        omega, journal=RecordingJournal(), audit=MemoryAuditLog()
    )
    return translator, engine, plan


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_commit_contract(stack, entry_point, fault):
    translator, engine, plan = stack
    half, op, items, call = ENTRY_POINTS[entry_point]
    arm, raised, status, outcome, translations, failures = FAULTS[fault]
    if isinstance(status, dict):
        status = status[half]
    if arm is not None:
        arm(plan)
    before = snapshot(engine.base)

    with obs.use() as hub:
        if raised is None:
            call(translator, engine)
        else:
            with pytest.raises(raised):
                call(translator, engine)
        counters = {
            name: hub.metrics.counter(name, op=op).value
            for name in ("translations_total", "translation_failures_total")
        }

    assert counters == {
        "translations_total": translations,
        "translation_failures_total": failures,
    }
    entries = translator.journal.journaled()
    assert [e.state for e in entries] == ([] if status is None else [status])
    (record,) = translator.audit.records()
    assert (record.op, record.state, record.items) == (op, outcome, items)
    if raised is None:
        assert record.error is None
    else:
        assert raised.__name__ in record.error
    if entries:
        # The audit record names the journal entry it rode on.
        assert record.journal_entry == entries[0].id

    if raised is SimulatedCrash:
        # The intent stays PENDING until recovery settles it: nothing
        # was committed, so it is reverted and the audit trail follows.
        recover(engine.base, translator.journal)
        assert translator.audit.reconcile(translator.journal) == 1
        assert [e.state for e in translator.journal.journaled()] == [ABORTED]
        assert translator.audit.record(record.id).state == "rolled_back"
    assert not engine.base.in_transaction
    if raised is None:
        assert snapshot(engine.base) != before
    else:
        assert snapshot(engine.base) == before


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_failed_commit_is_counted_without_journal_or_audit(
    omega, stack, entry_point
):
    """The outcome ladder does not depend on a log being attached."""
    _, engine, plan = stack
    _, op, _, call = ENTRY_POINTS[entry_point]
    plan.add(FaultRule("transient", ("commit",), at=1))
    before = snapshot(engine.base)
    with obs.use() as hub:
        with pytest.raises(TransactionError):
            call(Translator(omega), engine)
        failures = hub.metrics.counter("translation_failures_total", op=op)
        assert failures.value == 1
        assert hub.metrics.counter("translations_total", op=op).value == 0
    assert snapshot(engine.base) == before


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_plan_and_images_are_encoded_once(stack, entry_point, monkeypatch):
    """Journal and audit log receive the same payloads, encoded once."""
    import repro.core.updates.translator as translator_mod
    import repro.obs.audit as audit_mod
    import repro.relational.journal as journal_mod

    calls = {"encode_plan": 0, "encode_images": 0}
    for name in calls:
        real = getattr(journal_mod, name)

        def counting(value, name=name, real=real):
            calls[name] += 1
            return real(value)

        for module in (translator_mod, audit_mod, journal_mod):
            monkeypatch.setattr(module, name, counting, raising=False)

    translator, engine, _ = stack
    ENTRY_POINTS[entry_point][3](translator, engine)

    assert calls == {"encode_plan": 1, "encode_images": 1}
    (entry,) = translator.journal.journaled()
    (record,) = translator.audit.records()
    assert entry.plan_records == record.plan_records
    assert entry.image_records == record.image_records
    assert record.plan_records and record.image_records


class _NoChangelog(MemoryEngine):
    """A backend that keeps no change log (``Engine.changelog`` is None)."""

    @property
    def changelog(self):
        return None


def test_engine_without_changelog_is_journaled_with_images(
    omega, university_graph
):
    """Images come from the translation, not the engine's change log: a
    single write and a batch write on a backend without one are both
    journaled, and both audit records carry their images."""
    engine = _NoChangelog()
    university_graph.install(engine)
    populate_university(engine)
    translator = Translator(
        omega, journal=RecordingJournal(), audit=MemoryAuditLog()
    )
    translator.apply(engine, CompleteInsertion(course("CS990")), "insert")
    batch_write(
        translator, engine, [CompleteInsertion(course("CS991"))], op="insert"
    )
    entries = translator.journal.journaled()
    records = translator.audit.records()
    assert [e.state for e in entries] == [COMMITTED, COMMITTED]
    assert all(e.image_records for e in entries)
    assert [r.image_records for r in records] == [
        e.image_records for e in entries
    ]
