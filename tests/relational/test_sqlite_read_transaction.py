"""A run of reads on a sqlite file is one read transaction.

Outside a write, ``SqliteEngine``'s first SELECT issues ``BEGIN`` and
the reads after it share that transaction; every other statement commits
it first. These tests pin both halves: the statements issued (read off
``Connection.set_trace_callback``) and that a write is durable the moment
it returns, as seen by a second stdlib connection on the same file.
"""

import sqlite3
import threading
import time

import pytest

from repro.errors import TransientEngineError
from repro.penguin import Penguin
from repro.relational.ddl import relation
from repro.relational.operations import Delete, Insert
from repro.relational.sqlite_engine import SqliteEngine
from repro.serve import ConcurrentPenguin
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    new_chart,
    patient_chart_object,
    populate_hospital,
)

CHART = "patient_chart"

T = relation("T").text("k").integer("n", nullable=True).key("k").build()


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "db.sqlite")


@pytest.fixture
def engine(path):
    engine = SqliteEngine(path)
    engine.create_relation(T)
    yield engine
    engine.close()


@pytest.fixture
def other(path):
    """A second connection on the file; ``timeout=0`` so a held lock is
    an immediate error, not a five-second wait."""
    connection = sqlite3.connect(path, timeout=0, isolation_level=None)
    yield connection
    connection.close()


def rows(connection, name="T"):
    return sorted(connection.execute(f'SELECT * FROM "{name}"').fetchall())


@pytest.fixture
def penguin(path):
    """A flat-chart hospital session on a database file."""
    graph = hospital_schema()
    penguin = Penguin(graph, engine=SqliteEngine(path))
    populate_hospital(penguin.engine, HospitalConfig(patients=0))
    penguin.register_object(patient_chart_object(graph))
    for pid in (1, 2, 3):
        penguin.insert(CHART, new_chart(pid, f"p{pid}", 1950, "checkup"))
    yield penguin
    penguin.engine.close()


def traced(engine):
    statements = []
    engine._connection.set_trace_callback(statements.append)
    return statements


def kinds(statements):
    """Each statement's first word."""
    return [s.split()[0] for s in statements]


# -- errors ------------------------------------------------------------------


@pytest.mark.parametrize(
    "statement",
    [lambda e: e.count("T"), lambda e: e.insert("T", ("a", 1))],
    ids=["read", "write"],
)
def test_an_unmapped_sqlite_error_is_raised_as_it_was(engine, other, statement):
    other.execute("DROP TABLE T")  # "no such table" is not transient
    with pytest.raises(sqlite3.OperationalError) as caught:
        statement(engine)
    assert caught.value.__cause__ is None


def test_a_read_under_a_foreign_write_lock_is_transient(engine, other):
    engine.insert("T", ("a", 1))
    other.execute("BEGIN EXCLUSIVE")
    # Fail at once rather than after sqlite3's default five-second wait.
    engine._connection.execute("PRAGMA busy_timeout = 0")
    with pytest.raises(TransientEngineError) as caught:
        engine.get("T", ("a",))
    assert isinstance(caught.value.__cause__, sqlite3.OperationalError)
    other.execute("ROLLBACK")
    assert engine.get("T", ("a",)) == ("a", 1)
    assert not engine.in_transaction


# -- durability --------------------------------------------------------------


def test_autocommit_writes_after_a_read_are_durable(engine, other):
    engine.insert("T", ("a", 1))
    assert engine.get("T", ("a",)) == ("a", 1)
    assert rows(other) == [("a", 1)]  # the read holds SHARED only
    engine.insert("T", ("b", 2))
    assert rows(other) == [("a", 1), ("b", 2)]
    engine.get("T", ("b",))
    engine.replace("T", ("b",), ("b", 3))
    assert rows(other) == [("a", 1), ("b", 3)]
    engine.count("T")
    engine.delete("T", ("a",))
    assert rows(other) == [("b", 3)]
    assert not engine.in_transaction
    assert engine.changelog.depth == 0


def test_batches_after_a_read_are_durable(engine, other):
    engine.get("T", ("a",))
    engine.insert_many("T", [("a", 1), ("b", 2)])
    assert rows(other) == [("a", 1), ("b", 2)]
    list(engine.scan("T"))
    engine.apply_batch([Insert("T", ("c", 3)), Delete("T", ("a",))])
    assert rows(other) == [("b", 2), ("c", 3)]


def test_ddl_after_a_read_is_durable(engine, other):
    engine.find_by("T", ("n",), (1,))
    engine.create_relation(relation("U").text("k").integer("n").key("k").build())
    engine.count("T")
    engine.create_index("U", ("n",))
    names = {n for (n,) in other.execute("SELECT name FROM sqlite_master")}
    assert {"U", "idx_U_n"} <= names


def test_close_leaves_nothing_open(path, other):
    engine = SqliteEngine(path)
    engine.create_relation(T)
    engine.insert("T", ("a", 1))
    engine.get("T", ("a",))
    engine.close()
    other.execute("BEGIN EXCLUSIVE")
    other.execute("INSERT INTO T VALUES ('b', 2)")
    other.execute("COMMIT")


def test_a_chart_replace_after_a_get_is_durable(penguin, other):
    chart = penguin.get(CHART, (1,)).to_dict()
    chart["name"] = "renamed"
    penguin.replace(CHART, (1,), chart)
    assert other.execute(
        "SELECT name FROM PATIENT WHERE patient_id = 1"
    ).fetchone() == ("renamed",)


def test_no_write_lands_in_another_threads_read_transaction(engine, other):
    """Readers call the engine itself, with no session lock between them
    and the writer: only the engine lock keeps a reader's ``BEGIN`` from
    slipping between "end the read" and the writer's statement."""
    engine.insert("T", ("a", 0))
    errors = []
    stop = threading.Event()

    def read():
        try:
            while not stop.is_set():
                engine.get("T", ("a",))
        except Exception as exc:  # collected, asserted below
            errors.append(exc)

    readers = [threading.Thread(target=read) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        for n in range(1, 400):
            engine.insert("T", (f"k{n}", n))
            assert other.execute(
                'SELECT n FROM "T" WHERE k = ?', (f"k{n}",)
            ).fetchone() == (n,)
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert errors == []


def test_threaded_readers_and_a_writer_share_one_file_engine(penguin, other):
    serving = ConcurrentPenguin(penguin)
    errors = []
    stop = threading.Event()

    def read():
        try:
            while not stop.is_set():
                for pid in (1, 2, 3):
                    assert serving.get(CHART, (pid,)) is not None
        except Exception as exc:  # collected, asserted below
            errors.append(exc)

    readers = [threading.Thread(target=read) for _ in range(4)]
    for thread in readers:
        thread.start()
    written = 0
    deadline = time.monotonic() + 1.0
    try:
        pid = 100
        while time.monotonic() < deadline:
            serving.insert(CHART, new_chart(pid, f"p{pid}", 1960, "visit"))
            seen = other.execute(
                "SELECT COUNT(*) FROM PATIENT WHERE patient_id = ?", (pid,)
            ).fetchone()
            assert seen == (1,), pid
            pid += 1
            written += 1
    finally:
        stop.set()
        for thread in readers:
            thread.join()
    assert errors == []
    assert written > 0


# -- statement economy -------------------------------------------------------


def test_a_run_of_gets_is_one_read_transaction(penguin):
    statements = traced(penguin.engine)
    for _ in range(5):
        for pid in (1, 2, 3):
            penguin.get(CHART, (pid,))
    assert kinds(statements).count("BEGIN") == 1
    assert "COMMIT" not in kinds(statements)
    assert kinds(statements)[0] == "BEGIN"


def test_a_flat_chart_get_issues_six_selects(penguin):
    penguin.get(CHART, (1,))
    statements = traced(penguin.engine)
    penguin.get(CHART, (2,))
    assert kinds(statements) == ["SELECT"] * 6


def test_the_write_after_reads_commits_them_once(penguin):
    chart = penguin.get(CHART, (1,)).to_dict()
    chart["name"] = "renamed"
    statements = traced(penguin.engine)
    penguin.replace(CHART, (1,), chart)
    words = kinds(statements)
    assert words[:2] == ["COMMIT", "SAVEPOINT"]
    assert words.count("COMMIT") == 1
    # The write's own reads run inside its savepoint: nothing opens.
    assert "BEGIN" not in words
    assert words[-1] == "RELEASE"


def test_back_to_back_writes_open_and_commit_nothing(penguin):
    statements = traced(penguin.engine)
    penguin.insert(CHART, new_chart(10, "a", 1970, "visit"))
    penguin.insert(CHART, new_chart(11, "b", 1971, "visit"))
    penguin.delete(CHART, (10,))
    words = kinds(statements)
    assert "BEGIN" not in words and "COMMIT" not in words
    assert words.count("SAVEPOINT") == words.count("RELEASE") == 3
