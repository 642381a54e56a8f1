"""The images a write journals and audits, against a database diff.

A translated write's before/after images are folded from what the
translation recorded (``TranslationContext.mutations``), not read from
the engine's change log or re-read from the engine. The oracle here
knows nothing of either: it snapshots the database before and after the
write and reads each of the plan's cells off the two snapshots, in the
order the plan first touches them. Both translate halves (``apply``, and
``explain_batch`` with ``op=`` landed by ``apply_plan``), memory and
sqlite, seeded ``random_chain_case`` schemas and a DATE-keyed relation.
"""

import copy
import datetime

import pytest

from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.errors import ReproError
from repro.obs.audit import MemoryAuditLog
from repro.relational.journal import encode_images
from repro.workloads.synthetic import random_chain_case
from tests.conftest import batch_write, make_engine
from tests.journal_harness import RecordingJournal
from tests.core.updates.test_compiled import (
    FRESH_ROOT,
    REHOMED_ROOT,
    dated_case,
    rekey,
)

pytestmark = pytest.mark.audit


def _narrow(values):
    return tuple(
        v.date() if isinstance(v, datetime.datetime) else v for v in values
    )


def database(engine):
    """``(relation, key) -> row`` over every relation."""
    return {
        (name, engine.schema(name).key_of(row)): row
        for name in engine.relation_names()
        for row in engine.scan(name)
    }


def plan_cells(engine, plan):
    """The cells ``plan`` touches, each once, in first-touch order (a
    key-changing replacement touches its old key, then its new one)."""
    cells = []
    for operation in plan.operations:
        relation = operation.relation
        if operation.kind != "insert":
            cells.append((relation, _narrow(operation.key)))
        if operation.kind != "delete":
            values = _narrow(operation.values)
            cells.append((relation, engine.schema(relation).key_of(values)))
    return list(dict.fromkeys(cells))


class Logged:
    """A journaled, audited translator whose every committed write is
    checked against the database diff."""

    def __init__(self, engine, view_object):
        self.engine = engine
        self.translator = Translator(
            view_object,
            journal=RecordingJournal(),
            audit=MemoryAuditLog(),
            strictness="off",
        )
        self.checked = 0

    def write(self, call):
        before = database(self.engine)
        entries = len(self.translator.journal.journaled())
        try:
            plan = call(self.translator, self.engine)
        except ReproError:
            assert len(self.translator.journal.journaled()) == entries
            return
        after = database(self.engine)
        expected = {
            cell: (before.get(cell), after.get(cell))
            for cell in plan_cells(self.engine, plan)
        }
        entry = self.translator.journal.journaled()[-1]
        record = self.translator.audit.records()[-1]
        assert entry.image_records == encode_images(expected)
        assert record.image_records == entry.image_records
        self.checked += 1

    def apply(self, request):
        self.write(lambda t, e: t.apply(e, request, "update"))

    def batch(self, requests):
        self.write(lambda t, e: batch_write(t, e, requests, op="batch"))


def repay(node, text):
    """Set every island tuple's ``payload`` to ``text``."""
    for name, value in node.items():
        if name == "payload":
            node[name] = text
        elif isinstance(value, list):
            for child in value:
                repay(child, text)
    return node


def chain_writes(logged, eager):
    """Insert, re-key, and delete — one request each (``apply``), or as
    batches (``batch_write``): one rewrites the cells it inserted,
    one puts a cell back."""
    t, engine = logged.translator, logged.engine
    template = t.instantiate(engine, (0,)).to_dict()
    fresh = rekey(copy.deepcopy(template), FRESH_ROOT)
    if eager:
        logged.apply(CompleteInsertion(copy.deepcopy(fresh)))
        logged.apply(
            Replacement(
                (FRESH_ROOT,), rekey(copy.deepcopy(template), REHOMED_ROOT)
            )
        )
        logged.apply(CompleteDeletion((REHOMED_ROOT,)))
        logged.apply(CompleteDeletion((0,)))
        return
    rehomed = rekey(copy.deepcopy(template), REHOMED_ROOT)
    logged.batch(
        [
            CompleteInsertion(copy.deepcopy(fresh)),
            Replacement((FRESH_ROOT,), repay(copy.deepcopy(fresh), "edited")),
        ]
    )
    logged.batch(
        [
            Replacement((FRESH_ROOT,), copy.deepcopy(rehomed)),
            Replacement((REHOMED_ROOT,), repay(rehomed, "again")),
        ]
    )
    # Inserted, then deleted again in the same batch: the plan inserts
    # and deletes the fresh root, and its cells image as (None, None).
    logged.batch(
        [
            CompleteInsertion(copy.deepcopy(fresh)),
            CompleteDeletion((FRESH_ROOT,)),
            CompleteDeletion((REHOMED_ROOT,)),
        ]
    )


@pytest.mark.parametrize("eager", [True, False], ids=["apply", "batch"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("seed", range(6))
def test_chain_images_are_the_database_diff(seed, backend, eager):
    engine = make_engine(backend)
    _, view_object, _ = random_chain_case(engine, seed)
    logged = Logged(engine, view_object)
    chain_writes(logged, eager)
    assert logged.checked >= 3


@pytest.mark.parametrize("as_datetime", [False, True])
@pytest.mark.parametrize("eager", [True, False], ids=["apply", "batch"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_date_keyed_images_are_the_database_diff(backend, eager, as_datetime):
    """STAY's key holds a DATE: a ``datetime`` in the request is stored,
    journaled and keyed as the ``date`` it narrows to."""

    def day(dom):
        if as_datetime:
            return datetime.datetime(2021, 3, dom, 13, 30)
        return datetime.date(2021, 3, dom)

    def ward(name):
        return {
            "ward": name,
            "opened": day(4),
            "STAY": [
                {"ward": name, "day": day(5), "note": "a"},
                {"ward": name, "day": day(6), "note": None},
            ],
        }

    engine = make_engine(backend)
    logged = Logged(engine, dated_case(engine))
    # Old instances as the client sent them: their keys carry the
    # request's values, not the stored ones.
    requests = [
        CompleteInsertion(ward("er")),
        Replacement(ward("er"), ward("er2")),
        CompleteDeletion(ward("er2")),
        CompleteDeletion(("icu",)),
    ]
    if eager:
        for request in requests:
            logged.apply(request)
    else:
        logged.batch(requests[:2])
        logged.batch(requests[2:])
    assert logged.checked == (4 if eager else 2)
