"""Added experiment: cost of the three translation algorithms.

The paper reports no performance numbers; these benches quantify the
implementation. Two sweeps:

* **university workload** — one representative VO-CI / VO-CD / VO-R per
  round on ω, reporting the operation counts each translation emits;
* **island-depth sweep** — the synthetic ownership chain dials the
  dependency island's height; translation cost (operations and time)
  must grow with the island size, the shape claim implied by Section 5
  ("any update operation on the view object should have consistent
  repercussions throughout the components of that object's dependency
  island") — for deletions and re-keys, which touch every island tuple.
  A *leaf edit* is the counter-series: VO-R's CASE R-1 says an unchanged
  tuple needs nothing, so one edited leaf costs one operation and a
  constant number of engine probes however tall the island is.
"""

import copy

import pytest

from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.figures import course_info_object
from repro.workloads.synthetic import chain_object, chain_schema, populate_chain


def fresh_university():
    from benchmarks.conftest import build_university_engine

    return build_university_engine()


def course_with_children(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError("no suitable course")


@pytest.mark.benchmark(group="translate-university")
def test_bench_complete_insertion(benchmark):
    graph, __ = fresh_university()
    omega = course_info_object(graph)
    translator = Translator(omega)
    instance = {
        "course_id": "BENCH1",
        "title": "Benchmark Course",
        "units": 3,
        "level": "graduate",
        "dept_name": "Physics",
        "GRADES": [
            {
                "course_id": "BENCH1",
                "student_id": 1011 + offset,
                "grade": "A",
                "STUDENT": [],
            }
            for offset in range(3)
        ],
    }

    def setup():
        __, engine = fresh_university()
        return (engine,), {}

    def run(engine):
        return translator.apply(
            engine, CompleteInsertion(copy.deepcopy(instance)), "insert"
        )

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    print(f"VO-CI: {len(plan)} operations ({plan.count('insert')} inserts)")
    assert plan.count("insert") >= 4


@pytest.mark.benchmark(group="translate-university")
def test_bench_complete_deletion(benchmark):
    graph, probe = fresh_university()
    omega = course_info_object(graph)
    translator = Translator(omega)
    course_id = course_with_children(probe)

    def setup():
        __, engine = fresh_university()
        return (engine,), {}

    def run(engine):
        return translator.apply(engine, CompleteDeletion((course_id,)), "delete")

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    print(f"VO-CD: {len(plan)} operations ({plan.count('delete')} deletes)")
    assert plan.count("delete") >= 2


@pytest.mark.benchmark(group="translate-university")
def test_bench_replacement_nonkey(benchmark):
    graph, probe = fresh_university()
    omega = course_info_object(graph)
    translator = Translator(omega)
    course_id = course_with_children(probe)

    def setup():
        __, engine = fresh_university()
        old = translator.instantiate(engine, (course_id,))
        new = copy.deepcopy(old.to_dict())
        new["title"] = "Replaced"
        return (engine, old, new), {}

    def run(engine, old, new):
        return translator.apply(engine, Replacement(old, new), "replace")

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    print(f"VO-R (nonkey): {len(plan)} operations")
    assert plan.count("replace") == 1


@pytest.mark.benchmark(group="translate-university")
def test_bench_replacement_key_change(benchmark):
    graph, probe = fresh_university()
    omega = course_info_object(graph)
    translator = Translator(omega)
    course_id = course_with_children(probe)

    def setup():
        __, engine = fresh_university()
        old = translator.instantiate(engine, (course_id,))
        new = copy.deepcopy(old.to_dict())
        new["course_id"] = "REKEYED"
        for grade in new.get("GRADES", []):
            grade["course_id"] = "REKEYED"
        for entry in new.get("CURRICULUM", []):
            entry["course_id"] = "REKEYED"
        return (engine, old, new), {}

    def run(engine, old, new):
        return translator.apply(engine, Replacement(old, new), "replace")

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    print(f"VO-R (key change): {len(plan)} operations")
    assert plan.count("replace") >= 1


# ---------------------------------------------------------------------------
# Island-depth sweep on the synthetic chain
# ---------------------------------------------------------------------------

DEPTHS = [1, 2, 3, 4]
FANOUT = 3


def build_chain(depth):
    graph = chain_schema(depth=depth)
    engine = MemoryEngine()
    graph.install(engine)
    populate_chain(engine, depth=depth, roots=3, fanout=FANOUT)
    view_object = chain_object(graph, depth)
    return graph, engine, view_object


@pytest.mark.benchmark(group="translate-depth-sweep")
@pytest.mark.parametrize("depth", DEPTHS)
def test_bench_deletion_vs_island_depth(benchmark, depth):
    """Series: deletion cost vs dependency-island height. The emitted
    operation count is sum_{i<=depth} fanout^i + peninsula repairs,
    growing geometrically with depth — who wins and by what factor is
    printed as the series the harness reports."""
    graph, __, view_object = build_chain(depth)
    translator = Translator(view_object)

    def setup():
        engine = MemoryEngine()
        graph.install(engine)
        populate_chain(engine, depth=depth, roots=3, fanout=FANOUT)
        return (engine,), {}

    def run(engine):
        return translator.apply(engine, CompleteDeletion((0,)), "delete")

    plan = benchmark.pedantic(run, setup=setup, rounds=5)
    expected_island = sum(FANOUT ** level for level in range(depth + 1))
    print(
        f"depth={depth}: island tuples={expected_island}, "
        f"operations={len(plan)}"
    )
    assert len(plan) >= expected_island


@pytest.mark.benchmark(group="translate-depth-sweep")
@pytest.mark.parametrize("depth", DEPTHS)
def test_bench_rekey_vs_island_depth(benchmark, depth):
    """Series: key-change replacement cost vs island height — every
    island tuple's inherited key must be rewritten."""
    graph, probe_engine, view_object = build_chain(depth)
    translator = Translator(view_object)

    def setup():
        engine = MemoryEngine()
        graph.install(engine)
        populate_chain(engine, depth=depth, roots=3, fanout=FANOUT)
        old = translator.instantiate(engine, (0,))
        new = _rekey(old.to_dict(), 99)
        return (engine, old, new), {}

    def run(engine, old, new):
        return translator.apply(engine, Replacement(old, new), "replace")

    plan = benchmark.pedantic(run, setup=setup, rounds=5)
    expected_island = sum(FANOUT ** level for level in range(depth + 1))
    print(
        f"depth={depth}: island tuples={expected_island}, "
        f"operations={len(plan)}"
    )
    assert plan.count("replace") >= expected_island


class _CountingEngine(MemoryEngine):
    """Counts the reads a translation makes."""

    probes = 0

    def get(self, name, key):
        self.probes += 1
        return super().get(name, key)

    def find_by(self, name, attribute_names, entry):
        self.probes += 1
        return super().find_by(name, attribute_names, entry)

    def find_by_many(self, name, attribute_names, entries):
        entries = list(entries)
        self.probes += len(entries)
        return super().find_by_many(name, attribute_names, entries)

    def contains(self, name, key):
        self.probes += 1
        return super().contains(name, key)


@pytest.mark.benchmark(group="translate-depth-sweep")
@pytest.mark.parametrize("depth", DEPTHS)
def test_bench_leaf_edit_vs_island_depth(benchmark, depth):
    """Series: one nonkey edit of one deepest leaf vs island height
    (4 ... 121 island tuples). The bar is on counts, not time: one
    operation, and the same one probe of the edited tuple (the R-2 read,
    whose row the recorded replace takes) at every depth."""
    graph, __, view_object = build_chain(depth)
    translator = Translator(view_object)

    def setup():
        engine = _CountingEngine()
        graph.install(engine)
        populate_chain(engine, depth=depth, roots=3, fanout=FANOUT)
        old = translator.instantiate(engine, (0,))
        new = old.to_dict()
        leaf = new
        for level in range(1, depth + 1):
            leaf = leaf[f"R{level}"][-1]
        leaf["payload"] = "edited"
        engine.probes = 0
        return (engine, old, new), {}

    def run(engine, old, new):
        return translator.apply(engine, Replacement(old, new), "replace"), engine.probes

    plan, probes = benchmark.pedantic(run, setup=setup, rounds=5)
    island = sum(FANOUT ** level for level in range(depth + 1))
    print(
        f"depth={depth}: island tuples={island}, "
        f"operations={len(plan)}, engine probes={probes}"
    )
    assert len(plan) == plan.count("replace") == 1
    assert probes == 1


def _rekey(data, new_k0):
    data = copy.deepcopy(data)

    def walk(node):
        if "k0" in node:
            node["k0"] = new_k0
        for value in node.values():
            if isinstance(value, list):
                for child in value:
                    if isinstance(child, dict):
                        walk(child)

    walk(data)
    return data
