"""Atomic multi-operation sessions via Penguin.transaction()."""

import pytest

from repro.errors import UpdateRejectedError
from repro.penguin import Penguin
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema


@pytest.fixture
def penguin():
    session = Penguin(university_schema())
    populate_university(session.engine)
    session.register_object(course_info_object(session.graph))
    return session


def some_courses(penguin, n):
    return sorted(v[0] for v in penguin.engine.scan("COURSES"))[:n]


def test_commit_on_success(penguin):
    first, second = some_courses(penguin, 2)
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        penguin.delete("course_info", (second,))
    assert penguin.engine.get("COURSES", (first,)) is None
    assert penguin.engine.get("COURSES", (second,)) is None


def test_rollback_on_error(penguin):
    first, __ = some_courses(penguin, 2)
    with pytest.raises(UpdateRejectedError):
        with penguin.transaction():
            penguin.delete("course_info", (first,))
            # Second operation fails: identical pivot already exists.
            penguin.insert(
                "course_info",
                {
                    "course_id": some_courses(penguin, 2)[1],
                    "title": "clash",
                    "units": 1,
                    "level": "graduate",
                    "dept_name": "Physics",
                },
            )
    # The earlier deletion must have rolled back too.
    assert penguin.engine.get("COURSES", (first,)) is not None
    assert penguin.is_consistent()


def test_rollback_never_reaches_the_cache(penguin):
    """No stale instance survives an aborted translation, and none is
    dropped: inside the transaction a read goes to the engine (so it sees
    the uncommitted deletion) and leaves the cache alone, and the
    rollback hands the cache nothing. Rollback restores rows at the end
    of their tables, yet siblings still come back in key order, so the
    instances are equal as they are."""
    view = penguin.materialize("course_info")
    before = {i.key: i.to_dict() for i in penguin.query("course_info")}
    cached = len(view)
    first, second = some_courses(penguin, 2)
    with pytest.raises(UpdateRejectedError):
        with penguin.transaction():
            penguin.delete("course_info", (first,))
            assert (first,) not in {i.key for i in penguin.query("course_info")}
            assert penguin.get("course_info", (first,)) is None
            penguin.insert(
                "course_info",
                {
                    "course_id": second,
                    "title": "clash",
                    "units": 1,
                    "level": "graduate",
                    "dept_name": "Physics",
                },
            )
    assert len(view) == cached
    hits = view.stats.hits
    assert penguin.get("course_info", (first,)) is not None
    assert view.stats.hits == hits + 1
    after = {i.key: i.to_dict() for i in penguin.query("course_info")}
    assert after == before
    assert view.staleness() == 0


def test_a_read_inside_a_transaction_shows_its_write_and_caches_nothing(penguin):
    view = penguin.materialize("course_info")
    penguin.query("course_info")
    cached = len(view)
    first = some_courses(penguin, 1)[0]
    title = penguin.get("course_info", (first,)).root.values["title"]
    schema = penguin.engine.schema("COURSES")
    row = dict(zip(schema.attribute_names, penguin.engine.get("COURSES", (first,))))
    with pytest.raises(RuntimeError):
        with penguin.transaction():
            penguin.engine.replace("COURSES", (first,), {**row, "title": "Uncommitted"})
            instance = penguin.get("course_info", (first,))
            assert instance.root.values["title"] == "Uncommitted"
            raise RuntimeError("abort")
    assert len(view) == cached
    hits = view.stats.hits
    assert penguin.get("course_info", (first,)).root.values["title"] == title
    assert view.stats.hits == hits + 1
    assert view.stats.patched == view.stats.invalidations == 0


def test_commit_keeps_materialized_cache_consistent(penguin):
    penguin.materialize("course_info")
    first, second = some_courses(penguin, 2)
    penguin.query("course_info")
    with penguin.transaction():
        penguin.delete("course_info", (first,))
        penguin.delete("course_info", (second,))
    keys = {i.key for i in penguin.query("course_info")}
    assert (first,) not in keys and (second,) not in keys
    assert keys == {
        (v[0],) for v in penguin.engine.scan("COURSES")
    }


def test_swap_pattern(penguin):
    """Move all grades of one course onto a fresh course atomically."""
    cid = next(
        v[0]
        for v in penguin.engine.scan("COURSES")
        if penguin.engine.find_by("GRADES", ("course_id",), (v[0],))
    )
    old = penguin.get("course_info", (cid,))
    with penguin.transaction():
        new = old.to_dict()
        new["course_id"] = "SWAP1"
        for grade in new.get("GRADES", []):
            grade["course_id"] = "SWAP1"
        for entry in new.get("CURRICULUM", []):
            entry["course_id"] = "SWAP1"
        penguin.replace("course_info", old, new)
    assert penguin.engine.get("COURSES", ("SWAP1",)) is not None
    assert penguin.is_consistent()
