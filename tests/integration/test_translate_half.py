"""One place picks the translate half, by request count.

``Penguin._apply`` is where every write chooses: one request goes to the
eager half (``Translator.apply``), more to the overlay half
(``explain_batch(op=)``, then ``apply_plan``), whichever verb carried
them. A write keeps its verb's op label on either half, and a refused
translation leaves the same ``rolled_back`` record from either half:
counted once, no plan, only ``items`` telling them apart.
"""

import pytest

from repro.core.updates.operations import CompleteInsertion
from repro.errors import ReproError
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.serve.concurrent import ConcurrentPenguin
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    new_chart,
    patient_chart_object,
    populate_hospital,
)

CHART = "patient_chart"
RESIDENT = 100

# benchmarks/e2e's policy: an unknown ward cannot be completed.
RESTRICTIVE = {
    "modify.PHYSICIAN.allowed": False,
    "modify.MEDICATION.allowed": False,
    "replacement.PATIENT.merge_on_conflict": False,
}


def chart(pid, **given):
    return new_chart(pid, f"Patient {pid}", 1970, "checkup", **given)


def session(backend, concurrent, answers=None):
    penguin = Penguin(hospital_schema(), backend=backend, audit=MemoryAuditLog())
    populate_hospital(penguin.engine, HospitalConfig(patients=4))
    penguin.register_object(patient_chart_object(penguin.graph))
    if answers is not None:
        penguin.choose_translator(CHART, answers)
    return ConcurrentPenguin(penguin) if concurrent else penguin


def watch_halves(monkeypatch, session):
    """The halves each write took, as ``(half, op)``, in call order."""
    translator = session.translator(CHART)
    taken = []
    apply, explain_batch = translator.apply, translator.explain_batch

    def eager(engine, request, op, **given):
        taken.append(("eager", op))
        return apply(engine, request, op, **given)

    def overlay(engine, requests, op=None):
        taken.append(("overlay", op))
        return explain_batch(engine, requests, op=op)

    monkeypatch.setattr(translator, "apply", eager)
    monkeypatch.setattr(translator, "explain_batch", overlay)
    return taken


WRITES = {
    "insert": (
        lambda s: s.insert(CHART, chart(90001)), ("eager", "insert"),
    ),
    "insert_many-of-one": (
        lambda s: s.insert_many(CHART, [chart(90001)]), ("eager", "insert"),
    ),
    "apply_plan_batch-of-one": (
        lambda s: s.apply_plan_batch(
            CHART, [CompleteInsertion(s.coerce(CHART, chart(90001)))]
        ),
        ("eager", "batch"),
    ),
    "delete_where-matching-one": (
        lambda s: s.delete_where(CHART, f"patient_id = {RESIDENT}"),
        ("eager", "delete_where"),
    ),
    "insert_many-of-two": (
        lambda s: s.insert_many(CHART, [chart(90001), chart(90002)]),
        ("overlay", "insert"),
    ),
    "apply_plan_batch-of-two": (
        lambda s: s.apply_plan_batch(CHART, [
            CompleteInsertion(s.coerce(CHART, chart(pid)))
            for pid in (90001, 90002)
        ]),
        ("overlay", "batch"),
    ),
}


@pytest.mark.parametrize("concurrent", [False, True], ids=["penguin", "concurrent"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_the_request_count_picks_the_half_and_the_verb_keeps_its_label(
    write, backend, concurrent, monkeypatch
):
    s = session(backend, concurrent)
    run, expected = WRITES[write]
    taken = watch_halves(monkeypatch, s)
    plan = run(s)
    assert taken == [expected]
    assert len(plan)
    (record,) = s.translator(CHART).audit.records()
    assert (record.op, record.state) == (expected[1], "committed")


REFUSED = {
    "insert": lambda s, bad: s.insert(CHART, bad),
    "insert_many-of-one": lambda s, bad: s.insert_many(CHART, [bad]),
    "insert_many-of-two": lambda s, bad: s.insert_many(
        CHART, [bad, chart(90002)]
    ),
}


@pytest.mark.parametrize("concurrent", [False, True], ids=["penguin", "concurrent"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_refused_write_leaves_the_same_record_from_either_half(
    backend, concurrent
):
    seen = {}
    for verb, run in sorted(REFUSED.items()):
        s = session(backend, concurrent, RESTRICTIVE)
        with pytest.raises(ReproError, match="projected out"):
            run(s, chart(90001, ward_name="Nowhere"))
        (record,) = s.translator(CHART).audit.records()
        assert record.state == "rolled_back"
        assert record.plan_records == [] and record.image_records == []
        seen[verb] = record.as_dict()
    items = {verb: record.pop("items") for verb, record in seen.items()}
    assert items == {
        "insert": 1, "insert_many-of-one": 1, "insert_many-of-two": 2,
    }
    assert seen["insert"] == seen["insert_many-of-one"] == seen["insert_many-of-two"]
