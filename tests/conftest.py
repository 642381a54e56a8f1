"""Shared fixtures: populated databases and canonical view objects."""

from __future__ import annotations

import time

import pytest

from repro.core.information_metric import InformationMetric
from repro.core.tree_builder import build_maximal_tree, prune_tree
from repro.core.updates.policy import TranslatorPolicy
from repro.core.view_object import Projection, ViewObjectDefinition
from repro.relational.faults import FaultRule
from repro.relational.memory_engine import MemoryEngine
from repro.relational.sqlite_engine import SqliteEngine
from repro.workloads.cad import assembly_object, cad_schema, populate_cad
from repro.workloads.figures import alternate_course_object, course_info_object
from repro.workloads.hospital import (
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.university import populate_university, university_schema


def wait_until(predicate, timeout=5.0):
    """Poll until ``predicate()`` holds.

    Replaces fixed ``time.sleep`` pauses in concurrency tests: the
    follow-up assertion runs only once the watched thread is provably
    in the expected state, so the test cannot race the scheduler.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.001)
    raise AssertionError("condition not reached within timeout")


def fault(kind, operations=("mutation",), rate=1.0, times=None, delay=0.0):
    """A :class:`FaultRule` that fires on each matching call with
    probability ``rate``, at most ``times`` times (``None``: unlimited);
    a ``latency`` rule sleeps ``delay`` seconds."""
    rule = FaultRule(kind, operations)
    rule.rate, rule.times, rule.delay = rate, times, delay
    return rule


def counter_total(registry, name):
    """Sum of one counter family across every label set."""
    return sum(counter.value for counter in registry.counters(name))


def histogram_total_count(registry, name):
    """Total observations of one histogram family."""
    return sum(histogram.count for histogram in registry.histograms(name))


def asked(transcript, section=None):
    """The ids of the questions a dialog transcript records, in order."""
    return [
        question.qid for question, _ in transcript.entries
        if section is None or question.section == section
    ]


def sized(config, **constants):
    """``config`` with generator constants set on this instance:
    ``sized(UniversityConfig(), faculty=3)`` sets ``FACULTY``."""
    for name, value in constants.items():
        setattr(config, name.upper(), value)
    return config


def completing(completer):
    """A permissive policy whose completer is ``completer``."""
    policy = TranslatorPolicy()
    policy.completer = completer
    return policy


def query_only(graph, name, pivot, selections):
    """A view object that is not updatable, so its projections may drop
    keys: ``define_view_object``'s pipeline with ``updatable=False``."""
    metric = InformationMetric()
    subgraph = metric.extract_subgraph(graph, pivot)
    pruned = prune_tree(build_maximal_tree(graph, subgraph, metric.weights), selections)
    projections = {
        node_id: Projection(pruned.node(node_id).relation, attributes)
        for node_id, attributes in selections.items()
    }
    return ViewObjectDefinition(name, graph, pruned, projections, updatable=False)


def make_engine(backend: str):
    """Fresh engine by backend name (used by parametrized fixtures)."""
    if backend == "memory":
        return MemoryEngine()
    if backend == "sqlite":
        return SqliteEngine()
    raise ValueError(backend)


def batch_write(translator, engine, requests, op="batch"):
    """A batch write at the translator, as ``Penguin`` composes one: the
    overlay translate half, then the commit half landing its plan."""
    requests = list(requests)
    plan = translator.explain_batch(engine, requests, op=op).plan
    return translator.apply_plan(engine, plan, op=op, items=len(requests))


class Heard:
    """A changelog subscriber that keeps what each commit hands it:
    ``batches`` is one list of records per delivery, in delivery order."""

    def __init__(self, engine) -> None:
        self.batches = []
        engine.changelog.subscribe(self)

    def absorb(self, records) -> None:
        self.batches.append(list(records))

    def take(self):
        """Every record heard since the last ``take``, in apply order."""
        records = [record for batch in self.batches for record in batch]
        self.batches = []
        return records


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    """Both storage backends; engine-contract tests run on each."""
    return request.param


@pytest.fixture
def university_graph():
    return university_schema()


@pytest.fixture
def university_engine(university_graph):
    engine = MemoryEngine()
    university_graph.install(engine)
    populate_university(engine)
    return engine


@pytest.fixture
def university_sqlite(university_graph):
    engine = SqliteEngine()
    university_graph.install(engine)
    populate_university(engine)
    return engine


@pytest.fixture
def omega(university_graph):
    """ω of Figure 2(c)."""
    return course_info_object(university_graph)


@pytest.fixture
def omega_prime(university_graph):
    """ω′ of Figure 3."""
    return alternate_course_object(university_graph)


@pytest.fixture
def metric():
    return InformationMetric()


@pytest.fixture
def hospital_graph():
    return hospital_schema()


@pytest.fixture
def hospital_engine(hospital_graph):
    engine = MemoryEngine()
    hospital_graph.install(engine)
    populate_hospital(engine)
    return engine


@pytest.fixture
def chart(hospital_graph):
    return patient_chart_object(hospital_graph)


@pytest.fixture
def cad_graph():
    return cad_schema()


@pytest.fixture
def cad_engine(cad_graph):
    engine = MemoryEngine()
    cad_graph.install(engine)
    populate_cad(engine)
    return engine


@pytest.fixture
def bom(cad_graph):
    return assembly_object(cad_graph)
