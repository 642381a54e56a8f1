"""Audit recording under concurrent serving and degraded mode."""

import threading

import pytest

from repro.errors import DegradedServiceError, TransientEngineError
from repro.obs.audit import COMMITTED, DEGRADED_REJECTED, MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan
from repro.relational.memory_engine import MemoryEngine
from repro.serve import CircuitBreaker, ConcurrentPenguin
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema
from tests.conftest import fault, wait_until

pytestmark = pytest.mark.audit


def new_course(course_id):
    return {
        "course_id": course_id,
        "title": f"Course {course_id}",
        "units": 3,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }


def audited_serving(fault_plan=None, **breaker_kwargs):
    graph = university_schema()
    base = MemoryEngine()
    graph.install(base)
    populate_university(base)
    engine = base
    if fault_plan is not None:
        engine = FaultInjectingEngine(base, fault_plan)
    session = Penguin(
        graph, engine=engine, install=False, audit=MemoryAuditLog()
    )
    session.register_object(course_info_object(graph))
    breaker = CircuitBreaker(**breaker_kwargs) if breaker_kwargs else None
    return ConcurrentPenguin(session, breaker=breaker)


def test_degraded_refusals_are_audited():
    serving = audited_serving(
        fault_plan=FaultPlan().add(fault("transient", ("mutation",), times=3)),
        failure_threshold=3,
        probe_interval=100,
    )
    for i in range(3):
        with pytest.raises(TransientEngineError):
            serving.insert("course_info", new_course(f"AU{i:03d}"))
    assert serving.breaker.degraded
    log = serving.penguin.audit
    audited_before = len(log)
    with pytest.raises(DegradedServiceError):
        serving.delete("course_info", ("M100",))
    assert len(log) == audited_before + 1
    refusal = log.tail(1)[0]
    assert refusal.state == DEGRADED_REJECTED
    assert refusal.op == "delete"
    assert refusal.label == "course_info"
    assert "DegradedServiceError" in refusal.error
    # The refused update never ran, so replay must not include it.
    report = serving.penguin.replay_audit()
    assert report.ok, report.summary()
    assert (refusal.id, DEGRADED_REJECTED) in report.skipped


def test_unaudited_session_refuses_without_recording():
    graph = university_schema()
    base = MemoryEngine()
    graph.install(base)
    populate_university(base)
    session = Penguin(graph, engine=base, install=False)
    session.register_object(course_info_object(graph))
    serving = ConcurrentPenguin(
        session, breaker=CircuitBreaker(failure_threshold=1, probe_interval=100)
    )
    serving.breaker.record_failure()
    with pytest.raises(DegradedServiceError):
        serving.insert("course_info", new_course("AU999"))  # must not blow up


def test_concurrent_writers_get_unique_contiguous_asns():
    serving = audited_serving()
    log = serving.penguin.audit
    writers = 8
    started = threading.Barrier(writers)
    errors = []

    def write(index):
        started.wait()
        try:
            serving.insert("course_info", new_course(f"AU{index:03d}"))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=write, args=(i,)) for i in range(writers)
    ]
    for thread in threads:
        thread.start()
    # The write lock serializes the updates; the log fills to exactly
    # one record per writer with no duplicated or skipped ASN.
    wait_until(lambda: len(log) == writers)
    for thread in threads:
        thread.join()
    assert not errors
    assert [record.id for record in log.records()] == list(
        range(1, writers + 1)
    )
    assert all(r.state == COMMITTED for r in log.records())
    report = serving.penguin.replay_audit()
    assert report.ok, report.summary()


def test_reads_never_append_to_the_log():
    serving = audited_serving()
    log = serving.penguin.audit
    serving.insert("course_info", new_course("AU001"))
    recorded = len(log)
    serving.query("course_info")
    serving.get("course_info", ("AU001",))
    serving.check_integrity()
    assert len(log) == recorded
