"""Bulk update pipeline vs. the per-instance translation loop.

A per-instance ``insert()`` pays, for every instance: a transaction
(savepoint + commit), the VO-CI dependency probes against the live
engine, and one statement per produced operation. The bulk pipeline
translates the whole batch over a :class:`BufferedEngine` overlay
(memoized reads), concatenates the per-instance plans, and flushes once
through ``executemany`` inside a single transaction.

The headline check asserts the acceptance bar: inserting 1000 instances
through ``insert_many`` must be >= 5x faster than the sequential loop on
a file-backed sqlite engine, where each per-instance commit pays real
journal I/O exactly as a production store would.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_bulk.py -q``;
add ``--benchmark-only`` for the timing groups.
"""

import time

import pytest

from benchmarks.bench_json import summarize, write_bench_json
from repro.penguin import Penguin
from repro.relational.sqlite_engine import SqliteEngine
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema

SPEEDUP_FLOOR = 5.0
BATCH = 1000


def new_course(i):
    return {
        "course_id": f"BULK{i:05d}",
        "title": f"Bulk Course {i}",
        "units": 3,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }


def sqlite_session(path):
    session = Penguin(university_schema(), engine=SqliteEngine(str(path)))
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session


def memory_session():
    session = Penguin(university_schema())
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session


def test_bulk_speedup_sqlite(tmp_path):
    """The acceptance bar: 1k-instance bulk insert >= 5x the loop."""
    batch = [new_course(i) for i in range(BATCH)]

    session = sqlite_session(tmp_path / "sequential.db")
    per_insert = []
    started = time.perf_counter()
    for data in batch:
        insert_started = time.perf_counter()
        session.insert("course_info", data)
        per_insert.append(time.perf_counter() - insert_started)
    sequential = time.perf_counter() - started

    session = sqlite_session(tmp_path / "bulk.db")
    started = time.perf_counter()
    plan = session.insert_many("course_info", batch)
    bulk = time.perf_counter() - started

    assert session.engine.count("COURSES") >= BATCH
    assert len(plan) == BATCH
    speedup = sequential / bulk
    write_bench_json(
        "bulk",
        {
            "sequential_insert_s": summarize(per_insert),
            "sequential_total_s": sequential,
            "bulk_total_s": bulk,
            "batch": BATCH,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        },
    )
    print(
        f"\n[sqlite, file-backed] {BATCH} inserts: sequential "
        f"{sequential:.3f}s, bulk {bulk:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"bulk insert speedup {speedup:.1f}x below the "
        f"{SPEEDUP_FLOOR}x acceptance bar"
    )


def test_bulk_equals_sequential_state(tmp_path):
    """Bulk and sequential loops must leave identical relation contents."""
    batch = [new_course(i) for i in range(50)]
    seq = sqlite_session(tmp_path / "a.db")
    for data in batch:
        seq.insert("course_info", data)
    blk = sqlite_session(tmp_path / "b.db")
    blk.insert_many("course_info", batch)
    for relation in seq.engine.relation_names():
        assert sorted(seq.engine.scan(relation)) == sorted(
            blk.engine.scan(relation)
        ), relation


@pytest.mark.benchmark(group="bulk-insert")
def test_bench_insert_loop_memory(benchmark):
    counter = iter(range(10**9))

    def loop():
        session = memory_session()
        base = next(counter) * 100
        for i in range(100):
            session.insert("course_info", new_course(base + i))

    benchmark(loop)


@pytest.mark.benchmark(group="bulk-insert")
def test_bench_insert_many_memory(benchmark):
    counter = iter(range(10**9))

    def bulk():
        session = memory_session()
        base = next(counter) * 100
        session.insert_many(
            "course_info", [new_course(base + i) for i in range(100)]
        )

    benchmark(bulk)


@pytest.mark.benchmark(group="bulk-delete")
def test_bench_delete_many_memory(benchmark):
    def run():
        session = memory_session()
        batch = [new_course(i) for i in range(100)]
        session.insert_many("course_info", batch)
        session.delete_many(
            "course_info", [(f"BULK{i:05d}",) for i in range(100)]
        )

    benchmark(run)
