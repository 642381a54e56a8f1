"""Golden-trace regression tests for the canonical Figure-4 workload.

The committed fixtures under ``tests/obs/golden/`` pin the *shape* of
the observability output: the normalized span trees for a canonical
insert and delete, and the EXPLAIN text for the insert.  Durations are
stripped (``Span.normalized``), so the fixtures are byte-stable.

To regenerate after an intentional change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_traces.py

then review the fixture diff like any other code change.
"""

import os
from pathlib import Path

import pytest

import repro.obs as obs
from repro.core.updates.operations import CompleteDeletion, CompleteInsertion
from repro.core.updates.translator import Translator
from tests.core.updates.test_insertion import existing_student, new_course

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))


def check_golden(name, actual):
    path = GOLDEN_DIR / name
    if REGEN:
        path.write_text(actual + "\n")
        pytest.skip(f"regenerated {name}")
    expected = path.read_text().rstrip("\n")
    assert actual == expected, (
        f"{name} drifted from the committed fixture; if the change is "
        f"intentional, regenerate with REGEN_GOLDEN=1"
    )


@pytest.fixture
def traced(omega, university_engine):
    translator = Translator(omega)
    with obs.use() as hub:
        yield translator, university_engine, hub


def take_normalized(hub):
    (root,) = hub.tracer.take()
    return root.normalized()


class TestGoldenTraces:
    def test_insert_span_tree(self, traced):
        translator, engine, hub = traced
        course = new_course(engine, student=existing_student(engine))
        hub.tracer.take()  # only the next update's root
        translator.apply(engine, CompleteInsertion(course))
        check_golden("figure4_insert_trace.txt", take_normalized(hub))

    def test_delete_span_tree(self, traced):
        translator, engine, hub = traced
        course = new_course(engine, student=existing_student(engine))
        translator.apply(engine, CompleteInsertion(course))
        instance = translator.instantiate(engine, ("CS999",))
        hub.tracer.take()  # only the next update's root
        translator.apply(engine, CompleteDeletion(instance))
        check_golden("figure4_delete_trace.txt", take_normalized(hub))

    def test_insert_explain_text(self, traced):
        translator, engine, hub = traced
        course = new_course(engine, student=existing_student(engine))
        explanation = translator.explain_batch(
            engine, [CompleteInsertion(course)]
        )
        check_golden("figure4_insert_explain.txt", explanation.render())

    def test_delete_explain_text(self, traced):
        translator, engine, hub = traced
        course = new_course(engine, student=existing_student(engine))
        translator.apply(engine, CompleteInsertion(course))
        instance = translator.instantiate(engine, ("CS999",))
        explanation = translator.explain_batch(
            engine, [CompleteDeletion(instance)]
        )
        check_golden("figure4_delete_explain.txt", explanation.render())
