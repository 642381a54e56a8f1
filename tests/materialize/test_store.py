"""MaterializedStore / MaterializedView behavior and maintenance."""

import datetime
import sys
import threading

import pytest

from repro.core.instantiation import Instantiator
from repro.errors import ViewObjectError
from repro.materialize import LAZY, MaterializedStore
from repro.penguin import Penguin
from repro.relational.ddl import relation
from repro.relational.engine import Engine
from repro.relational.sqlite_engine import SqliteEngine
from repro.structural.schema_graph import StructuralSchema
from repro.workloads.figures import course_info_object
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.conftest import Heard

CONFIG = UniversityConfig(students=10, faculty=4, staff=2, courses=6)


def make_penguin(backend="memory"):
    penguin = Penguin(university_schema(), backend=backend)
    populate_university(penguin.engine, CONFIG)
    penguin.register_object(course_info_object(penguin.graph))
    return penguin


def fresh_extent(penguin):
    instantiator = Instantiator(penguin.object("course_info"))
    return {i.key: i.to_dict() for i in instantiator.all(penguin.engine)}


def course_row(penguin, offset=0):
    rows = sorted(penguin.engine.scan("COURSES"))
    return rows[offset % len(rows)]


def retitle(penguin, values, title):
    schema = penguin.engine.schema("COURSES")
    row = dict(zip((a.name for a in schema.attributes), values))
    row["title"] = title
    penguin.engine.replace("COURSES", schema.key_of(values), row)


# -- cache accounting ---------------------------------------------------------


def test_warm_then_hit(backend="memory"):
    penguin = make_penguin(backend)
    view = penguin.materialize("course_info")
    first = penguin.query("course_info")
    assert view.stats.misses == len(first)
    assert view.stats.hits == 0
    second = penguin.query("course_info")
    assert view.stats.hits == len(second)
    assert view.stats.misses == len(first)
    assert [i.key for i in first] == [i.key for i in second]


def test_query_text_served_from_cache():
    penguin = make_penguin()
    expected = [i.to_dict() for i in penguin.query("course_info", "units >= 3")]
    view = penguin.materialize("course_info")
    got = [i.to_dict() for i in penguin.query("course_info", "units >= 3")]
    assert got == expected
    assert view.stats.requests > 0
    again = [i.to_dict() for i in penguin.query("course_info", "units >= 3")]
    assert again == expected
    assert view.stats.hits > 0


def test_get_served_from_cache():
    penguin = make_penguin()
    view = penguin.materialize("course_info")
    key = (course_row(penguin)[0],)
    assert penguin.get("course_info", key) is not None
    assert view.stats.misses == 1
    assert penguin.get("course_info", key) is not None
    assert view.stats.hits == 1
    assert penguin.get("course_info", ("NOPE",)) is None
    assert (view.stats.hits, view.stats.misses) == (1, 2)  # absent: a miss


def test_staleness_counts_pending_records():
    penguin = make_penguin()
    view = penguin.materialize("course_info")
    assert view.staleness() == 0
    retitle(penguin, course_row(penguin), "Pending")
    assert view.staleness() == 1
    penguin.query("course_info")
    assert view.staleness() == 0


# -- maintenance ------------------------------------------------------


def move_department(penguin, values):
    """Re-link the course: ``dept_name`` connects COURSES to DEPARTMENT."""
    schema = penguin.engine.schema("COURSES")
    row = dict(zip((a.name for a in schema.attributes), values))
    row["dept_name"] = next(
        d[0] for d in sorted(penguin.engine.scan("DEPARTMENT"))
        if d[0] != row["dept_name"]
    )
    penguin.engine.replace("COURSES", schema.key_of(values), row)
    return row["dept_name"]


def test_lazy_policy_evicts_and_reassembles_on_demand():
    penguin = make_penguin()
    view = penguin.materialize("course_info", policy=LAZY)
    penguin.query("course_info")
    cached_before = len(view)
    values = course_row(penguin)
    key = (values[0],)
    # A value-only replace is patched into the cached instance.
    retitle(penguin, values, "Lazily Retitled")
    view.sync()
    assert len(view) == cached_before
    assert (view.stats.patched, view.stats.invalidations) == (1, 0)
    misses = view.stats.misses
    instance = penguin.get("course_info", key)
    assert instance.root.values["title"] == "Lazily Retitled"
    assert view.stats.misses == misses  # served from the cache
    # A connecting attribute decides what the instance holds: evict.
    dept_name = move_department(penguin, penguin.engine.get("COURSES", key))
    view.sync()
    assert len(view) == cached_before - 1
    assert (view.stats.patched, view.stats.invalidations) == (1, 1)
    instance = penguin.get("course_info", key)
    assert view.stats.misses == misses + 1  # re-assembled on demand
    assert [d["dept_name"] for d in instance.tuples_at("DEPARTMENT")] == [
        dept_name
    ]
    assert fresh_extent(penguin) == {
        i.key: i.to_dict() for i in penguin.query("course_info")
    }


def test_unknown_policy_rejected():
    penguin = make_penguin()
    with pytest.raises(ViewObjectError):
        penguin.materialize("course_info", policy="psychic")
    with pytest.raises(ViewObjectError, match="the only one is 'lazy'"):
        penguin.materialize("course_info", "eager")


# -- extent membership ---------------------------------------------------------


def test_pivot_insert_and_delete_visible():
    penguin = make_penguin()
    penguin.materialize("course_info", policy=LAZY)
    baseline = {i.key for i in penguin.query("course_info")}
    penguin.engine.insert(
        "COURSES",
        {
            "course_id": "NEW1",
            "title": "Fresh",
            "units": 3,
            "level": "graduate",
            "dept_name": course_row(penguin)[4],
            "instructor_id": None,
        },
    )
    keys = {i.key for i in penguin.query("course_info")}
    assert keys == baseline | {("NEW1",)}
    penguin.engine.delete("COURSES", ("NEW1",))
    keys = {i.key for i in penguin.query("course_info")}
    assert keys == baseline


def test_component_insert_reflected():
    penguin = make_penguin()
    penguin.materialize("course_info")
    values = course_row(penguin)
    key = (values[0],)
    before = penguin.get("course_info", key).count_at("GRADES")
    graded = {
        g[1] for g in penguin.engine.scan("GRADES") if g[0] == values[0]
    }
    student = next(
        v[0]
        for v in sorted(penguin.engine.scan("STUDENT"))
        if v[0] not in graded
    )
    penguin.engine.insert(
        "GRADES",
        {"course_id": values[0], "student_id": student, "grade": "A"},
    )
    after = penguin.get("course_info", key).count_at("GRADES")
    assert after == before + 1


# -- wiring ---------------------------------------------------------------------


def test_engine_without_changelog_rejected():
    penguin = make_penguin()
    store = MaterializedStore(Engine())
    with pytest.raises(ViewObjectError, match="changelog"):
        store.materialize(penguin.object("course_info"))


def test_foreign_engine_rejected():
    penguin = make_penguin()
    other = make_penguin()
    view = penguin.materialize("course_info")
    with pytest.raises(ViewObjectError, match="different engine"):
        view.where(other.engine)


def test_double_materialize_rejected():
    penguin = make_penguin()
    penguin.materialize("course_info")
    with pytest.raises(ViewObjectError, match="already materialized"):
        penguin.materialize("course_info")


def test_dematerialize_detaches():
    penguin = make_penguin()
    view = penguin.materialize("course_info")
    penguin.query("course_info")
    assert penguin.materialized_names == ("course_info",)
    penguin.dematerialize("course_info")
    assert penguin.materialized("course_info") is None
    # Commits no longer reach the detached cache.
    retitle(penguin, course_row(penguin), "Unseen")
    assert view.staleness() == 0
    assert penguin.query("course_info")  # served dynamically again
    with pytest.raises(ViewObjectError):
        penguin.dematerialize("course_info")


def test_store_stats_aggregate():
    penguin = make_penguin()
    penguin.materialize("course_info")
    penguin.query("course_info")
    penguin.query("course_info")
    total = penguin._materialized.stats()
    per_view = penguin.cache_stats()
    assert total.hits == per_view["course_info"]["hits"] > 0
    assert 0.0 < total.hit_rate <= 1.0


# -- sqlite backend --------------------------------------------------------------


def test_sqlite_changelog_records_mutations():
    engine = SqliteEngine()
    graph = university_schema()
    graph.install(engine)
    populate_university(engine, CONFIG)
    heard = Heard(engine)
    values = sorted(engine.scan("COURSES"))[0]
    schema = engine.schema("COURSES")
    row = dict(zip((a.name for a in schema.attributes), values))
    row["title"] = "Logged"
    engine.replace("COURSES", schema.key_of(values), row)
    (record,) = heard.take()
    assert len(engine.changelog) == 0  # handed over and forgotten
    assert record.kind == "replace"
    assert record.relation == "COURSES"
    assert record.old_values == values


def test_sqlite_rollback_truncates_changelog():
    engine = SqliteEngine()
    graph = university_schema()
    graph.install(engine)
    populate_university(engine, CONFIG)
    mark = len(engine.changelog)
    engine.begin()
    key = sorted(engine.scan("CURRICULUM"))[0][:2]
    engine.delete("CURRICULUM", key)
    assert len(engine.changelog) == mark + 1
    engine.rollback()
    assert len(engine.changelog) == mark
    assert engine.get("CURRICULUM", key) is not None


def test_materialized_on_sqlite_backend():
    penguin = make_penguin(backend="sqlite")
    penguin.materialize("course_info")
    expected = fresh_extent(penguin)
    assert {i.key: i.to_dict() for i in penguin.query("course_info")} == expected
    retitle(penguin, course_row(penguin), "Sqlite Retitle")
    assert fresh_extent(penguin) == {
        i.key: i.to_dict() for i in penguin.query("course_info")
    }


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_datetime_keyed_get_follows_committed_changes(backend):
    """An instance is cached under its pivot key as the engine stores it
    (a datetime in a DATE attribute by its date), so a committed change
    reaches it whichever form the reader asked with."""
    graph = StructuralSchema("events")
    graph.add_relation(
        relation("EVENT").date("day").text("title").key("day").build()
    )
    penguin = Penguin(graph, backend=backend)
    penguin.define_object("event", "EVENT", {"EVENT": ["day", "title"]})
    day = datetime.date(2024, 1, 2)
    noon = datetime.datetime(2024, 1, 2, 12, 0)
    penguin.engine.insert("EVENT", (day, "old"))
    view = penguin.materialize("event")
    assert penguin.get("event", (noon,)).root.values["title"] == "old"
    penguin.engine.replace("EVENT", (day,), (day, "new"))
    for key in ((noon,), (day,)):
        assert penguin.get("event", key).root.values["title"] == "new"
    assert tuple(view._instances) == ((day,),)


def test_commits_racing_reads_lose_no_record():
    """A writer commits in-place replaces outside any transaction while
    readers sync and read the same view: each committed record is
    applied or still pending, never lost or applied twice, and the
    cache ends equal to a recompute."""
    penguin = make_penguin()
    view = penguin.materialize("course_info")
    penguin.query("course_info")
    rows = sorted(penguin.engine.scan("COURSES"))
    keys = [(values[0],) for values in rows]
    writes, errors = 300, []
    written = threading.Event()

    def write():
        try:
            for n in range(writes):
                retitle(penguin, rows[n % len(rows)], f"title {n}")
        finally:
            written.set()

    def read():
        try:
            while not written.is_set():
                for key in keys:
                    view.get(key)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write)]
    threads += [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert view.stats.records_applied + view.staleness() == writes
    assert fresh_extent(penguin) == {
        i.key: i.to_dict() for i in penguin.query("course_info")
    }
