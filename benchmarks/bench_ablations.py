"""Ablations of the design choices DESIGN.md calls out.

* **connection-attribute indexes** — update propagation is lookup-bound;
  with indexes off, every ``find_by`` is a scan, except one on exactly a
  relation's key attributes, which the row map answers on both arms (the
  key is its own index, so no arm builds a secondary index on it);
* **storage backend** — identical translations on the from-scratch
  engine vs sqlite3.
"""

import pytest

from repro.core.updates.operations import CompleteDeletion
from repro.core.updates.translator import Translator
from repro.workloads.figures import course_info_object
from repro.workloads.university import UniversityConfig

BIG = UniversityConfig(students=150, courses=60, enrollments_per_student=6)


def build(backend="memory", with_indexes=True, config=BIG):
    from benchmarks.conftest import build_university_engine

    return build_university_engine(
        backend=backend, with_indexes=with_indexes, config=config
    )


def connected_course(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError("no connected course")


@pytest.mark.benchmark(group="ablation-indexes")
@pytest.mark.parametrize("with_indexes", [True, False], ids=["indexed", "scan"])
def test_bench_deletion_index_ablation(benchmark, with_indexes):
    graph, probe = build(with_indexes=with_indexes)
    omega = course_info_object(graph)
    translator = Translator(omega)
    course_id = connected_course(probe)

    def setup():
        __, engine = build(with_indexes=with_indexes)
        return (engine,), {}

    def run(engine):
        return translator.apply(engine, CompleteDeletion((course_id,)))

    plan = benchmark.pedantic(run, setup=setup, rounds=3)
    assert plan.count("delete") >= 1


@pytest.mark.benchmark(group="ablation-backend")
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_bench_backend_ablation(benchmark, backend):
    graph, probe = build(backend=backend)
    omega = course_info_object(graph)
    translator = Translator(omega)
    course_id = connected_course(probe)

    def setup():
        __, engine = build(backend=backend)
        return (engine,), {}

    def run(engine):
        return translator.apply(engine, CompleteDeletion((course_id,)))

    plan = benchmark.pedantic(run, setup=setup, rounds=3)
    assert plan.count("delete") >= 1


@pytest.mark.benchmark(group="ablation-backend")
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_bench_instantiation_backend(benchmark, backend):
    from repro.core.instantiation import Instantiator

    graph, engine = build(backend=backend)
    omega = course_info_object(graph)
    instantiator = Instantiator(omega)
    course_id = connected_course(engine)
    instance = benchmark(instantiator.by_key, engine, (course_id,))
    assert instance is not None
