"""Figure 4: instantiation of a view object.

"An application's request to retrieve graduate courses with less than 5
students having enrolled produces one instance of ω." The bench runs the
paper's exact query through the object query language (parse → plan →
pushdown → assemble → residual filter) and prints the instance in the
paper's nested rendering.
"""

import pytest

from repro.core.instantiation import Instantiator
from repro.core.query import execute_query, parse_query
from repro.core.query.planner import plan_query
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
