"""Materialized view objects vs. repeated dynamic instantiation.

The paper's Figure 4 machinery re-assembles every instance on every
request. The materialize subsystem caches assembled trees and repairs
them from the changelog, so a read-heavy workload should collapse to
one pivot selection plus dictionary lookups. These benches quantify:

* the repeated-``query()`` speedup on an unchanged database (the
  acceptance bar is >= 10x; measured well above it on both the
  university and hospital workloads),
* the cost profile of the three maintenance policies under a mixed
  read/write loop,
* an update-heavy loop — zipf reads interleaved with in-place replaces
  all over the chart — in which the maintainer must patch every write
  into the cached instances: no eviction, no re-assembly.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_materialize.py
--benchmark-only -q``; the two ``test_speedup_*`` checks (the 10x bar)
and ``test_update_heavy_replaces_are_patched`` also run without
``--benchmark-only``.
"""

import time

import pytest

from benchmarks.bench_json import summarize, write_bench_json
from repro.materialize import EAGER, FULL_REFRESH, LAZY
from repro.penguin import Penguin
from repro.workloads.figures import course_info_object
from repro.workloads.hospital import (
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import ZipfianWorkload
from repro.workloads.university import populate_university, university_schema

SPEEDUP_FLOOR = 10.0


def university_session():
    session = Penguin(university_schema())
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session, "course_info"


def hospital_session():
    session = Penguin(hospital_schema())
    populate_hospital(session.engine)
    session.register_object(patient_chart_object(session.graph))
    return session, "patient_chart"


SESSIONS = {"university": university_session, "hospital": hospital_session}


def timed_queries(session, name, rounds):
    """Best-of-three timing of ``rounds`` repeated full queries.

    Returns ``(best, attempts)``: the attempt totals feed the JSON
    emission, the best one the speedup assertion.
    """
    attempts = []
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(rounds):
            instances = session.query(name)
        attempts.append(time.perf_counter() - started)
    assert instances
    return min(attempts), attempts


@pytest.mark.parametrize("workload", sorted(SESSIONS))
def test_speedup_read_heavy(workload):
    """Repeated query() on an unchanged database: cached vs dynamic."""
    session, name = SESSIONS[workload]()
    rounds = 15
    uncached, uncached_attempts = timed_queries(session, name, rounds)
    view = session.materialize(name, policy=LAZY)
    session.query(name)  # warm
    cached, cached_attempts = timed_queries(session, name, rounds)
    speedup = uncached / cached
    write_bench_json(
        "materialize",
        {
            f"{workload}_dynamic_s": summarize(uncached_attempts),
            f"{workload}_materialized_s": summarize(cached_attempts),
            f"{workload}_speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        },
    )
    print(
        f"\n[{workload}] {rounds} repeated query(): dynamic {uncached:.4f}s, "
        f"materialized {cached:.4f}s -> {speedup:.1f}x "
        f"(hit rate {view.stats.hit_rate:.3f})"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"{workload}: materialized speedup {speedup:.1f}x below the "
        f"{SPEEDUP_FLOOR}x acceptance bar"
    )


def _replace_in_place(engine, patient_id, turn):
    """One single-attribute replace somewhere in the patient's chart:
    the pivot, a visit, an island leaf, or the referenced physician
    (which every chart showing that physician shares)."""
    relation, key, attribute = (
        ("PATIENT", (patient_id,), "name"),
        ("VISIT", (patient_id, 1), "reason"),
        ("DIAGNOSIS", (patient_id, 1, 1), "severity"),
        ("PHYSICIAN", (engine.get("VISIT", (patient_id, 1))[3],), "name"),
    )[turn % 4]
    schema = engine.schema(relation)
    row = dict(zip(schema.attribute_names, engine.get(relation, key)))
    row[attribute] = f"changed {turn}"
    engine.replace(relation, key, row)


def test_update_heavy_replaces_are_patched():
    """35% in-place replaces between zipf reads: all of them patched,
    so after the warm-up nothing is evicted and every read is a hit."""
    session, name = hospital_session()
    view = session.materialize(name, policy=LAZY)
    session.query(name)  # warm
    patients = sorted(v[0] for v in session.engine.scan("PATIENT"))
    workload = ZipfianWorkload(
        len(patients), skew=0.9, seed=7, read_fraction=0.65, insert_fraction=0.0
    )
    assembled, hits = view.stats.misses, view.stats.hits
    reads, writes = [], 0
    for op in workload.ops(2000):
        patient_id = patients[op.rank]
        if op.kind == "read":
            started = time.perf_counter()
            instance = session.get(name, (patient_id,))
            reads.append(time.perf_counter() - started)
            assert instance.key == (patient_id,)
        else:
            _replace_in_place(session.engine, patient_id, op.sequence)
            writes += 1
    stats = view.stats
    hit_rate = (stats.hits - hits) / len(reads)
    write_bench_json(
        "materialize",
        {
            "update_heavy_read_s": summarize(reads),
            "update_heavy_writes": writes,
            "update_heavy_patched": stats.patched,
            "update_heavy_invalidations": stats.invalidations,
            "update_heavy_hit_rate": hit_rate,
        },
    )
    print(
        f"\n[update-heavy] {len(reads)} reads / {writes} in-place replaces: "
        f"patched {stats.patched}, invalidations {stats.invalidations}, "
        f"hit rate {hit_rate:.3f}"
    )
    assert writes and stats.patched >= writes
    assert (stats.invalidations, stats.refreshes) == (0, 0)
    assert stats.misses == assembled, "an in-place replace caused a re-assembly"
    assert hit_rate == 1.0
    dynamic = session.object(name).instantiator.all(session.engine)
    assert session.query(name) == dynamic


@pytest.mark.benchmark(group="materialize-read")
def test_bench_query_dynamic(benchmark):
    session, name = university_session()
    result = benchmark(session.query, name)
    assert result


@pytest.mark.benchmark(group="materialize-read")
def test_bench_query_materialized(benchmark):
    session, name = university_session()
    session.materialize(name)
    session.query(name)  # warm
    result = benchmark(session.query, name)
    assert result


def _mixed_loop(session, name, writes=5):
    pivot = session.object(name).pivot_relation
    schema = session.engine.schema(pivot)
    rows = list(session.engine.scan(pivot))
    for i in range(writes):
        values = rows[i % len(rows)]
        session.engine.replace(pivot, schema.key_of(values), values)
        session.query(name)
    return session.query(name)


@pytest.mark.benchmark(group="materialize-policies")
@pytest.mark.parametrize("policy", [LAZY, EAGER, FULL_REFRESH])
def test_bench_policy_mixed_workload(benchmark, policy):
    """One write per query round — maintenance cost under each policy."""
    session, name = university_session()
    session.materialize(name, policy=policy)
    session.query(name)  # warm
    result = benchmark(_mixed_loop, session, name)
    assert result


@pytest.mark.benchmark(group="materialize-maintenance")
def test_bench_single_invalidation_reassembly(benchmark):
    """Cost of repairing exactly one instance after one grade change."""
    session, name = university_session()
    session.materialize(name, policy=EAGER)
    session.query(name)
    engine = session.engine
    grade = next(iter(engine.scan("GRADES")))
    schema = engine.schema("GRADES")
    view = session.materialized(name)

    def touch_and_sync():
        engine.replace("GRADES", schema.key_of(grade), grade)
        return view.sync()

    applied = benchmark(touch_and_sync)
    assert applied == 1
