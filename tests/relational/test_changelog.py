"""Change log: counters, marks, rollback, and delivery at commit."""

import pytest

from repro.errors import TransactionError
from repro.relational.changelog import ChangeLog
from repro.relational.ddl import relation
from repro.relational.faults import FaultInjectingEngine, FaultPlan, FaultRule
from repro.relational.memory_engine import MemoryEngine
from tests.conftest import Heard, make_engine

SCHEMA = relation("T").text("k").integer("n").key("k").build()


def test_counters():
    log = ChangeLog()
    log.record("insert", "T", ("a",), ("a", 1))
    log.record("delete", "T", ("a",), None, ("a", 1))
    log.record("replace", "T", ("b",), ("b", 2), ("b", 1))
    assert log.counters == {"insert": 1, "delete": 1, "replace": 1}
    assert len(log) == 0  # outside a transaction nothing is kept


def test_rollback_restores_counters():
    log = ChangeLog()
    log.record("insert", "T", ("a",), ("a", 1))
    log.begin()
    log.record("delete", "T", ("a",), None, ("a", 1))
    log.record("replace", "T", ("b",), ("b", 2), ("b", 1))
    assert [r.kind for r in log.rollback()] == ["delete", "replace"]
    assert log.counters == {"insert": 1, "delete": 0, "replace": 0}
    assert len(log) == 0 and log.depth == 0


# -- delivery -------------------------------------------------------------------

# Each row: steps (``+k`` insert, ``~k`` replace, ``-k`` delete, and the
# transaction verbs), then the record lists a subscriber must have been
# handed, one per delivery. Nothing is delivered while a transaction is
# open.
DELIVERY = {
    "outer commit, once, in apply order": (
        "begin +a begin +b ~a commit -b commit",
        [["+a", "+b", "~a", "-b"]],
    ),
    "rolled-back inner transaction": (
        "begin +a begin +b ~a rollback ~a commit",
        [["+a", "~a"]],
    ),
    "rolled-back outer transaction": ("begin +a begin +b commit rollback", []),
    "writes outside a transaction": ("+a ~a -a", [["+a"], ["~a"], ["-a"]]),
    "an empty transaction": ("begin begin commit commit", []),
}


def _engine(kind):
    if kind == "fault":
        engine = FaultInjectingEngine(MemoryEngine(), FaultPlan())
    else:
        engine = make_engine(kind)
    engine.create_relation(SCHEMA)
    return engine


def _render(record):
    symbol = {"insert": "+", "replace": "~", "delete": "-"}[record.kind]
    return symbol + record.key[0]


@pytest.mark.parametrize("kind", ["memory", "sqlite", "fault"])
@pytest.mark.parametrize("row", list(DELIVERY))
def test_delivery(kind, row):
    steps, expected = DELIVERY[row]
    engine = _engine(kind)
    heard = Heard(engine)
    for n, step in enumerate(steps.split()):
        delivered = len(heard.batches)
        if step in ("begin", "commit", "rollback"):
            getattr(engine, step)()
        elif step[0] == "+":
            engine.insert("T", (step[1:], n))
        elif step[0] == "~":
            engine.replace("T", (step[1:],), (step[1:], n))
        else:
            engine.delete("T", (step[1:],))
        if engine.in_transaction:
            assert len(heard.batches) == delivered
    assert [[_render(r) for r in batch] for batch in heard.batches] == expected
    assert len(engine.changelog) == 0 and not engine.in_transaction


@pytest.mark.parametrize("base", ["memory", "sqlite"])
def test_a_failed_commit_delivers_nothing(base):
    """The commit fault fires before the base engine commits, and
    ``_finish_commit`` rolls the transaction back."""
    inner = make_engine(base)
    inner.create_relation(SCHEMA)
    engine = FaultInjectingEngine(inner, FaultPlan().add(FaultRule("transient", ("commit",), at=1)))
    heard = Heard(engine)
    with pytest.raises(TransactionError):
        with engine.transaction():
            engine.insert("T", ("a", 1))
    assert heard.batches == []
    assert engine.get("T", ("a",)) is None and not engine.in_transaction
    engine.insert("T", ("b", 2))
    assert [[_render(r) for r in batch] for batch in heard.batches] == [["+b"]]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_committed_writes_leave_no_history(backend):
    """The log forgets what it handed over: after 2 000 committed chart
    writes it holds nothing, however many records went through it."""
    from repro.penguin import Penguin
    from repro.workloads.hospital import (
        HospitalConfig,
        hospital_schema,
        new_chart,
        patient_chart_object,
        populate_hospital,
    )

    session = Penguin(hospital_schema(), backend=backend)
    populate_hospital(session.engine, HospitalConfig(patients=4))
    session.register_object(patient_chart_object(session.graph))
    view = session.materialize("patient_chart")
    heard = Heard(session.engine)
    for n in range(1000):
        pid = 50_000 + n
        session.insert("patient_chart", new_chart(pid, f"p{n}", 1970, "checkup"))
        session.delete("patient_chart", (pid,))
    assert len(session.engine.changelog) == 0
    # A bare chart is two tuples: each write hands over two records.
    assert len(heard.batches) == 2000 and len(heard.take()) == 4000
    assert view.staleness() == 4000 and view.sync() == 4000
    assert view.staleness() == 0
