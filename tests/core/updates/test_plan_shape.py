"""One plan shape for both translate halves.

Section 5 maps a view update to the set of database operations that
implement it. The eager half (``Translator.apply``) lands one request's
set; the overlay half (``Translator.explain_batch``, landed by
``apply_plan``) lands a list's sets, concatenated in request order, with nothing folded. So a batch
returns — and journals — exactly what ``apply`` returns for the same
requests one by one on an equal database: the same operations, in the
same order, with the same reasons, and the same images once the
per-request images are folded end to end.
"""

import copy

import pytest

from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialUpdate,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.relational.journal import encode_images
from repro.workloads.synthetic import random_chain_case
from tests.conftest import batch_write, make_engine
from tests.journal_harness import RecordingJournal
from tests.core.updates.test_compiled import FRESH_ROOT, REHOMED_ROOT, rekey, snapshot


def chain_requests(translator, engine):
    """Insert a fresh instance, re-key it, update its root in place,
    delete it; insert and delete a second fresh one in the same list;
    delete a resident instance."""
    template = translator.instantiate(engine, (0,)).to_dict()
    fresh = rekey(copy.deepcopy(template), FRESH_ROOT)
    rehomed = rekey(copy.deepcopy(template), REHOMED_ROOT)
    pivot = translator.view_object.pivot_node_id
    root = {
        name: value
        for name, value in rehomed.items()
        if not isinstance(value, list)
    }
    return [
        CompleteInsertion(copy.deepcopy(fresh)),
        Replacement((FRESH_ROOT,), copy.deepcopy(rehomed)),
        PartialUpdate(
            (REHOMED_ROOT,), pivot, dict(root), dict(root, payload="partial")
        ),
        CompleteDeletion((REHOMED_ROOT,)),
        CompleteInsertion(copy.deepcopy(fresh)),
        CompleteDeletion(copy.deepcopy(fresh)),
        CompleteDeletion((0,)),
    ]


def journaled(backend, seed):
    engine = make_engine(backend)
    _, view_object, _ = random_chain_case(engine, seed)
    translator = Translator(
        view_object, journal=RecordingJournal(), strictness="off"
    )
    return translator, engine


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("seed", range(6))
def test_a_batch_lands_what_apply_lands_one_by_one(seed, backend):
    eager, eager_engine = journaled(backend, seed)
    batch, batch_engine = journaled(backend, seed)
    requests = chain_requests(eager, eager_engine)

    plans = [
        eager.apply(eager_engine, request, "update") for request in requests
    ]
    combined = batch_write(
        batch, batch_engine, copy.deepcopy(requests), op="batch"
    )

    assert combined.operations == [op for p in plans for op in p.operations]
    assert combined.reasons == [r for p in plans for r in p.reasons]
    # The one insert-then-delete pair of the list lands as two operations.
    assert combined.count("insert") == sum(p.count("insert") for p in plans)
    folded = {}
    for entry in eager.journal.journaled():
        for cell, (before, after) in entry.images().items():
            folded[cell] = (folded[cell][0] if cell in folded else before, after)
    (entry,) = batch.journal.journaled()
    assert entry.image_records == encode_images(folded)
    assert snapshot(batch_engine) == snapshot(eager_engine)
