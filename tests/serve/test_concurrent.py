"""ReadWriteLock semantics and the ConcurrentPenguin stress test."""

import threading

import pytest

from repro.errors import UpdateError
from repro.penguin import Penguin
from repro.serve import ConcurrentPenguin, ReadWriteLock
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema
from tests.conftest import wait_until

COURSE_KEY = ("M100",)


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        # the barrier only releases if all three held the read lock at once
        assert all(not thread.is_alive() for thread in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        observed = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                observed.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        wait_until(lambda: lock.waiting_readers == 1)
        assert observed == []
        lock.release_write()
        thread.join(timeout=5)
        assert observed == ["read"]

    def test_writer_excludes_writer(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def writer():
            with lock.write_locked():
                order.append("second")

        thread = threading.Thread(target=writer)
        thread.start()
        wait_until(lambda: lock.waiting_writers == 1)
        order.append("first")
        lock.release_write()
        thread.join(timeout=5)
        assert order == ["first", "second"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()

        def writer():
            with lock.write_locked():
                pass

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        wait_until(lambda: lock.waiting_writers == 1)
        late = []

        def reader():
            with lock.read_locked():
                late.append("read")

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        wait_until(lambda: lock.waiting_readers == 1)
        # writer preference: the late reader queues behind the writer
        assert late == []
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert late == ["read"]

    def test_write_reentrant(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                assert lock._writer_owner is not None
            assert lock._writer_owner is not None
        assert lock._writer_owner is None

    def test_writer_may_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.read_locked():
                pass
            assert lock._writer_owner is not None

    def test_release_write_requires_owner(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        error = []

        def rogue():
            try:
                lock.release_write()
            except RuntimeError as exc:
                error.append(exc)

        thread = threading.Thread(target=rogue)
        thread.start()
        thread.join(timeout=5)
        assert error
        lock.release_write()


def build_server():
    graph = university_schema()
    session = Penguin(graph)
    populate_university(session.engine)
    session.register_object(course_info_object(graph))
    return ConcurrentPenguin(session)


class TestConcurrentPenguin:
    def test_wraps_a_session(self):
        server = build_server()
        assert isinstance(server.penguin, Penguin)
        with pytest.raises(TypeError):
            ConcurrentPenguin(server.penguin, install=False)

    def test_reads_and_writes_work(self):
        server = build_server()
        assert server.get("course_info", COURSE_KEY) is not None
        instances = server.query("course_info")
        assert instances
        updated = server.get("course_info", COURSE_KEY).to_dict()
        updated["title"] = "Renamed"
        server.replace("course_info", COURSE_KEY, updated)
        assert server.get("course_info", COURSE_KEY).root.values["title"] == "Renamed"

    @pytest.mark.slow
    def test_stress_no_torn_instances(self):
        """ISSUE acceptance: >= 4 readers against one writer, and every
        read observes title/units moving in lockstep (never a torn mix
        of two versions)."""
        server = build_server()
        server.materialize("course_info")
        rounds = 60
        stop = threading.Event()
        torn = []
        seen = set()

        def reader():
            while not stop.is_set():
                instance = server.get("course_info", COURSE_KEY)
                if instance is None:
                    torn.append("missing")
                    continue
                title = instance.root.values["title"]
                units = instance.root.values["units"]
                if title.startswith("v"):
                    if int(title[1:]) != units:
                        torn.append((title, units))
                    seen.add(units)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        template = server.get("course_info", COURSE_KEY).to_dict()
        try:
            for n in range(rounds):
                data = dict(template)
                data["title"] = f"v{n}"
                data["units"] = n
                server.replace("course_info", COURSE_KEY, data)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)

        assert not torn, f"torn reads observed: {torn[:5]}"
        assert all(not thread.is_alive() for thread in readers)
        final = server.get("course_info", COURSE_KEY)
        assert final.root.values["title"] == f"v{rounds - 1}"
        assert final.root.values["units"] == rounds - 1
        assert seen, "readers never overlapped the writer"
        assert server.is_consistent()

    def test_bulk_methods_exposed(self):
        server = build_server()
        batch = [
            {
                "course_id": f"SRV{i:03d}",
                "title": f"Served {i}",
                "units": 3,
                "level": "graduate",
                "dept_name": "Computer Science",
                "DEPARTMENT": [],
                "CURRICULUM": [],
                "GRADES": [],
            }
            for i in range(5)
        ]
        plan = server.insert_many("course_info", batch)
        assert plan.count("insert") == 5
        server.delete_many(
            "course_info", [(f"SRV{i:03d}",) for i in range(5)]
        )
        assert server.get("course_info", ("SRV000",)) is None
        assert server.is_consistent()

    def test_sync_and_cache_stats(self):
        server = build_server()
        server.materialize("course_info")
        server.get("course_info", COURSE_KEY)
        server.sync()
        stats = server.cache_stats()["course_info"]
        assert stats["hits"] + stats["misses"] >= 1

    def test_failed_write_releases_lock(self):
        server = build_server()
        with pytest.raises(UpdateError):
            server.delete("course_info", ("NOPE",))
        # the write lock must not leak: reads still proceed
        assert server.get("course_info", COURSE_KEY) is not None
