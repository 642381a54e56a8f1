"""Added experiment: view-object translation vs the Keller baseline.

Section 5 motivates the extensions: "Keller's deletion algorithm deletes
the matching database tuple from the root relation ... This solution
does not satisfy the semantic constraints of view objects." The bench
makes that concrete:

* on an *equivalent single-tuple update* (retitle a course) the two
  frameworks emit the same one-operation plan — no view-object overhead;
* on a *course deletion*, the flat translator emits exactly one delete
  and leaves orphaned GRADES and dangling CURRICULUM rows behind, while
  VO-CD emits the full repercussion set and keeps the database
  consistent. The printed rows report operations emitted and violations
  left, the series a comparison table would carry.
"""

import copy

import pytest

from repro.core.updates.operations import CompleteDeletion, Replacement
from repro.core.updates.translator import Translator
from repro.keller.translator import KellerTranslator
from repro.keller.views import JoinEdge, RelationalView
from repro.structural.integrity import IntegrityChecker
from repro.workloads.figures import course_info_object


def fresh():
    from benchmarks.conftest import build_university_engine

    return build_university_engine()


def flat_view():
    return RelationalView(
        "course_flat",
        ["COURSES"],
        projection=[
            "COURSES.course_id",
            "COURSES.title",
            "COURSES.units",
            "COURSES.level",
            "COURSES.dept_name",
        ],
    )


def connected_course(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by(
            "GRADES", ("course_id",), (values[0],)
        ) and engine.find_by("CURRICULUM", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError("no connected course")


@pytest.mark.benchmark(group="vs-keller")
def test_bench_retitle_flat_view(benchmark):
    graph, probe = fresh()
    course_id = connected_course(probe)
    view = flat_view()
    translator = KellerTranslator(view)

    def setup():
        __, engine = fresh()
        return (engine,), {}

    def run(engine):
        return translator.replace(
            engine,
            {"COURSES.course_id": course_id},
            {"COURSES.title": "Retitled"},
        )

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    print(f"flat retitle: {len(plan)} operations")
    assert len(plan) == 1


@pytest.mark.benchmark(group="vs-keller")
def test_bench_retitle_view_object(benchmark):
    graph, probe = fresh()
    omega = course_info_object(graph)
    translator = Translator(omega)
    course_id = connected_course(probe)

    def setup():
        __, engine = fresh()
        old = translator.instantiate(engine, (course_id,))
        new = copy.deepcopy(old.to_dict())
        new["title"] = "Retitled"
        return (engine, old, new), {}

    def run(engine, old, new):
        return translator.apply(engine, Replacement(old, new))

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    print(f"view-object retitle: {len(plan)} operations")
    assert len(plan) == 1  # same minimal plan as the flat baseline


@pytest.mark.benchmark(group="vs-keller")
def test_bench_delete_flat_view_leaves_orphans(benchmark):
    graph, probe = fresh()
    course_id = connected_course(probe)
    view = flat_view()
    translator = KellerTranslator(view)
    checker = IntegrityChecker(graph)
    observed = {}

    def setup():
        __, engine = fresh()
        observed["engine"] = engine
        return (engine,), {}

    def run(engine):
        return translator.delete(
            engine, {"COURSES.course_id": course_id}
        )

    plan = benchmark.pedantic(run, setup=setup, rounds=5)
    engine = observed["engine"]
    violations = checker.check(engine)
    print(
        f"flat delete: {len(plan)} operations, "
        f"{len(violations)} integrity violations left behind"
    )
    assert len(plan) == 1
    # Keller's root-relation deletion does NOT satisfy the structural
    # constraints: orphaned grades and dangling curriculum rows remain.
    assert violations


@pytest.mark.benchmark(group="vs-keller")
def test_bench_delete_view_object_consistent(benchmark):
    graph, probe = fresh()
    omega = course_info_object(graph)
    translator = Translator(omega)
    checker = IntegrityChecker(graph)
    course_id = connected_course(probe)
    observed = {}

    def setup():
        __, engine = fresh()
        observed["engine"] = engine
        return (engine,), {}

    def run(engine):
        return translator.apply(engine, CompleteDeletion((course_id,)))

    plan = benchmark.pedantic(run, setup=setup, rounds=5)
    engine = observed["engine"]
    violations = checker.check(engine)
    print(
        f"VO-CD delete: {len(plan)} operations, "
        f"{len(violations)} integrity violations left behind"
    )
    assert len(plan) > 1
    assert violations == []


@pytest.mark.benchmark(group="vs-keller")
def test_bench_enumeration_cost(benchmark):
    """Cost of enumerating + criteria-filtering flat deletion candidates
    — the work the definition-time dialog avoids at runtime."""
    from repro.keller.enumeration import enumerate_deletions, valid_translations

    graph, engine = fresh()
    view = RelationalView(
        "cd",
        ["COURSES", "DEPARTMENT"],
        [JoinEdge("COURSES", "DEPARTMENT", [("dept_name", "dept_name")])],
        projection=["COURSES.course_id", "DEPARTMENT.dept_name"],
    )
    rows = view.tuples(engine)
    victim = rows[0]
    view_tuple = dict(zip(view.projection, victim))
    expected = [t for t in rows if t != victim]

    def run():
        candidates = enumerate_deletions(view, engine, view_tuple)
        return valid_translations(view, engine, candidates, expected)

    valid = benchmark(run)
    print(f"enumeration: {len(valid)} valid translation(s) survive")
    assert len(valid) >= 1
