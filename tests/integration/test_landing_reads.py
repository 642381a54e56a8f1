"""A landing reads nothing its translation recorded.

A batch write is two halves: the overlay translate half
(``Translator.explain_batch`` with ``op=``) records every cell it
touches, and the commit half (``Translator.apply_plan``) journals the
images folded from that record. So between the end of the translate
half and the landing (``Translator._commit``) no engine is read — for a
sharded local write, a ``transaction()`` exit and ``Penguin``'s batch
verbs alike, on memory and on sqlite. A plan that carries no images is
refused while a journal or an audit log would record it.
"""

import pytest

from repro.core.updates.operations import CompleteInsertion
from repro.core.updates.translator import Translator
from repro.errors import UpdateError
from repro.penguin import Penguin
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import UpdatePlan
from repro.relational.sqlite_engine import SqliteEngine
from repro.shard import ShardedPenguin, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    new_chart,
    patient_chart_object,
    populate_hospital,
)
from tests.conftest import make_engine

OBJECT = "patient_chart"
PATIENTS = 6
READS = ("get", "find_by", "find_by_many", "scan", "select", "contains")


@pytest.fixture
def window(monkeypatch):
    """Counts engine reads while ``window["open"]``: opened when a
    translate half returns, closed when its landing starts."""
    window = {"open": False, "reads": 0}
    for engine_class in (MemoryEngine, SqliteEngine):
        for name in READS:
            original = getattr(engine_class, name)

            def counting(self, *args, _original=original, **kwargs):
                if window["open"]:
                    window["reads"] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(engine_class, name, counting)
    explain, commit = Translator.explain_batch, Translator._commit

    def translated(self, *args, **kwargs):
        result = explain(self, *args, **kwargs)
        window["open"] = True
        return result

    def landing(self, *args, **kwargs):
        window["open"] = False
        return commit(self, *args, **kwargs)

    monkeypatch.setattr(Translator, "explain_batch", translated)
    monkeypatch.setattr(Translator, "_commit", landing)
    return window


def penguin(backend):
    session = Penguin(
        hospital_schema(), engine=make_engine(backend), journal=MemoryJournal()
    )
    populate_hospital(session.engine, HospitalConfig(patients=PATIENTS))
    session.register_object(patient_chart_object(session.graph))
    return session


def sharded(backend):
    graph = hospital_schema()
    session = ShardedPenguin(
        graph, "PATIENT", num_shards=2,
        engines=[make_engine(backend) for _ in range(2)], install=True,
    )
    populate_hospital(sharded_loader(session), HospitalConfig(patients=PATIENTS))
    session.register_object(patient_chart_object(graph))
    return session


def chart(pid):
    return new_chart(pid, f"Chart {pid}", 1970, "check-up")


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_sharded_local_write_lands_without_a_read(window, backend):
    session = sharded(backend)
    session.insert(OBJECT, chart(900))  # the owner's audit log takes its seed
    for write in (
        lambda: session.delete(OBJECT, (900,)),
        lambda: session.insert(OBJECT, chart(900)),
    ):
        window["reads"] = 0
        write()
        assert window["reads"] == 0
    assert session.get(OBJECT, (900,)) is not None


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_transaction_exit_lands_without_a_read(window, backend):
    session = penguin(backend)
    with session.transaction():
        session.insert(OBJECT, chart(900))
        session.delete(OBJECT, (100,))
        window["open"], window["reads"] = True, 0  # the block is translated
    assert window["reads"] == 0
    assert session.journal.counts()["committed"] == 1
    assert session.get(OBJECT, (900,)) is not None
    assert session.get(OBJECT, (100,)) is None


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_batch_verb_lands_without_a_read(window, backend):
    session = penguin(backend)
    session.insert_many(OBJECT, [chart(900), chart(901)])
    assert window["reads"] == 0
    session.delete_many(OBJECT, [(900,), (101,)])
    assert window["reads"] == 0
    assert session.journal.counts()["committed"] == 2


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_plan_without_images_is_refused_while_a_log_would_record_it(backend):
    session = penguin(backend)
    translator = session.translator(OBJECT)
    request = CompleteInsertion(session.coerce(OBJECT, chart(900)))
    translated = translator.explain_batch(session.engine, [request], op="insert").plan
    assert translated.images
    bare = UpdatePlan()  # what a partition of the plan is: no images
    for operation, reason in zip(translated.operations, translated.reasons):
        bare.add(operation, reason)
    with pytest.raises(UpdateError, match="carries no images"):
        translator.apply_plan(session.engine, bare, op="insert")
    assert len(session.journal) == 0
    assert session.get(OBJECT, (900,)) is None
    # Nothing would record it: the plan lands.
    Translator(session.object(OBJECT)).apply_plan(session.engine, bare, op="insert")
    assert session.get(OBJECT, (900,)) is not None
