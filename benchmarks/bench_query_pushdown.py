"""Added experiment: what the query planner's pushdown buys.

The paper's query model "composes" an object query with the object's
structure "to obtain a relational query"; our planner realizes that by
pushing pivot-only conjuncts into the engine so only matching pivot
tuples are ever assembled. The ablation runs the same selective query
with and without pushdown (the no-pushdown variant assembles every
instance and filters afterwards); the gap widens with database size.
"""

import pytest

from repro.core.instantiation import Instantiator
from repro.core.query import execute_query, parse_query
from repro.core.query.evaluator import evaluate
from repro.core.query.planner import plan_query
from repro.workloads.figures import course_info_object
from repro.workloads.university import UniversityConfig

QUERY = "dept_name = 'Physics' and units >= 3 and count(STUDENT) >= 0"

SIZES = {
    "small": UniversityConfig(students=40, courses=20),
    "large": UniversityConfig(
        students=200, courses=80, enrollments_per_student=6
    ),
}


def build(size):
    from benchmarks.conftest import build_university_engine

    return build_university_engine(config=SIZES[size])


@pytest.mark.benchmark(group="query-pushdown")
@pytest.mark.parametrize("size", sorted(SIZES))
def test_bench_with_pushdown(benchmark, size):
    graph, engine = build(size)
    omega = course_info_object(graph)
    results = benchmark(execute_query, omega, engine, QUERY)
    print(f"{size}: {len(results)} matches (pushdown)")
    assert all(
        i.root.values["dept_name"] == "Physics" for i in results
    )


@pytest.mark.benchmark(group="query-pushdown")
@pytest.mark.parametrize("size", sorted(SIZES))
def test_bench_without_pushdown(benchmark, size):
    """Assemble everything, filter afterwards — the naive plan."""
    graph, engine = build(size)
    omega = course_info_object(graph)
    ast = parse_query(QUERY)
    instantiator = Instantiator(omega)

    def run():
        return [
            instance
            for instance in instantiator.all(engine)
            if evaluate(ast, instance)
        ]

    results = benchmark(run)
    print(f"{size}: {len(results)} matches (no pushdown)")
    # Same answers either way.
    pushed = execute_query(omega, engine, QUERY)
    assert {i.key for i in results} == {i.key for i in pushed}


@pytest.mark.benchmark(group="query-pushdown")
def test_bench_planner_overhead(benchmark, university_graph):
    pivot = university_graph.relation("COURSES")
    plan = benchmark(lambda: plan_query(parse_query(QUERY), pivot))
    assert plan.residual is not None
