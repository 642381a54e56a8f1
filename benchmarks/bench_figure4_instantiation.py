"""Figure 4: instantiation of a view object.

"An application's request to retrieve graduate courses with less than 5
students having enrolled produces one instance of ω." The bench runs the
paper's exact query through the object query language (parse → plan →
pushdown → assemble → residual filter) and prints the instance in the
paper's nested rendering.

It also holds assembly to its probe count: one engine read per (child
edge, parent sibling list), the expected number computed from the
assembled instances themselves, recorded as ``read_calls_per_instance``
in ``BENCH_figure4.json``.
"""

import pytest

from benchmarks.bench_json import write_bench_json
from repro.core.instantiation import Instantiator
from repro.core.query import execute_query, parse_query
from repro.core.query.planner import plan_query
from repro.relational.engine import Engine
from repro.relational.expressions import TRUE

FIGURE4_QUERY = "level = 'graduate' and count(STUDENT) < 5"


@pytest.mark.benchmark(group="figure4")
def test_figure4_query(benchmark, university_engine, omega):
    results = benchmark(
        execute_query, omega, university_engine, FIGURE4_QUERY
    )
    assert results
    for instance in results:
        assert instance.root.values["level"] == "graduate"
        assert instance.count_at("STUDENT") < 5
    print()
    print("=== Figure 4: instance(s) of ω ===")
    for instance in results:
        print(instance.describe())


@pytest.mark.benchmark(group="figure4")
def test_bench_parse_and_plan(benchmark, university_graph):
    pivot = university_graph.relation("COURSES")
    plan = benchmark(lambda: plan_query(parse_query(FIGURE4_QUERY), pivot))
    assert plan.residual is not None


@pytest.mark.benchmark(group="figure4")
def test_bench_single_instance_assembly(benchmark, university_engine, omega):
    instantiator = Instantiator(omega)
    course_id = next(iter(university_engine.scan("COURSES")))[0]
    instance = benchmark(instantiator.by_key, university_engine, (course_id,))
    assert instance is not None


@pytest.mark.benchmark(group="figure4")
def test_bench_full_instantiation(benchmark, university_engine, omega):
    instantiator = Instantiator(omega)
    instances = benchmark(instantiator.where, university_engine, TRUE)
    assert len(instances) == university_engine.count("COURSES")


@pytest.mark.benchmark(group="figure4")
def test_bench_instantiation_on_sqlite(benchmark, omega):
    from benchmarks.conftest import build_university_engine

    __, engine = build_university_engine(backend="sqlite")
    results = benchmark(execute_query, omega, engine, FIGURE4_QUERY)
    assert results


class _ReadCounting(Engine):
    """Forwards to an engine, counting every read call it forwards."""

    def __init__(self, base: Engine) -> None:
        self.base = base
        self.reads = 0

    def schema(self, name):
        return self.base.schema(name)


def _counted(operation):
    def call(self, *args):
        self.reads += 1
        return getattr(self.base, operation)(*args)

    return call


for _operation in (
    "get", "get_many", "contains", "scan", "count", "select",
    "find_by", "find_by_many",
):
    setattr(_ReadCounting, _operation, _counted(_operation))


def _expected_reads(view_object, instance):
    """One probe per child edge of every sibling list in ``instance``
    (the pivot alone is a list of one) that has a tuple whose connecting
    values hold no null — a null matches nothing and is never asked."""
    tree = view_object.tree

    def reads(node_id, siblings):
        total = 0
        for child in tree.children(node_id):
            (hop,) = child.path.traversals  # ω's edges are single steps
            if any(
                None not in [c.values[a] for a in hop.start_attributes]
                for c in siblings
            ):
                total += 1
            for component in siblings:
                total += reads(child.node_id, component.child_tuples(child.node_id))
        return total

    return reads(view_object.pivot_node_id, [instance.root])


def test_one_read_per_child_edge_and_sibling_list(omega):
    from benchmarks.conftest import build_university_engine

    per_instance = {}
    for backend in ("memory", "sqlite"):
        __, engine = build_university_engine(backend=backend)
        counting = _ReadCounting(engine)
        instantiator = Instantiator(omega)
        instances = []
        for values in engine.scan("COURSES"):
            before = counting.reads
            instance = instantiator.assemble(counting, values)
            assert counting.reads - before == _expected_reads(omega, instance)
            instances.append(instance)
        assert any(  # a list of two or more tuples: find_by_many ran
            len(instance.root.child_tuples("GRADES")) >= 2
            for instance in instances
        )
        per_instance[backend] = counting.reads / len(instances)
    assert per_instance["memory"] == per_instance["sqlite"]
    write_bench_json("figure4", {"read_calls_per_instance": per_instance})
