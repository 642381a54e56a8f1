"""Circuit breaker and degraded-mode serving through ConcurrentPenguin."""

import pytest

from repro.errors import (
    DegradedServiceError,
    QueryError,
    TransientEngineError,
    UpdateError,
)
from repro.materialize import LAZY
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan
from repro.relational.memory_engine import MemoryEngine
from repro.serve import CircuitBreaker, ConcurrentPenguin
from repro.serve.breaker import DEGRADED, HEALTHY
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from tests.conftest import fault

pytestmark = pytest.mark.chaos

OBJECT = "patient_chart"


class TestCircuitBreaker:
    def test_starts_healthy_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == HEALTHY
        assert breaker.healthy
        assert all(breaker.allow() for _ in range(10))

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.healthy  # below threshold
        breaker.record_failure()
        assert breaker.degraded
        assert breaker.state == DEGRADED
        assert breaker.opened == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.healthy  # streak was broken

    def test_degraded_probes_every_nth_call(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=3)
        breaker.record_failure()
        assert breaker.degraded
        decisions = [breaker.allow() for _ in range(6)]
        assert decisions == [False, False, True, False, False, True]
        assert breaker.probes == 2
        assert breaker.refusals == 4

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.allow()  # probe
        breaker.record_success()
        assert breaker.healthy
        assert breaker.closed == 1

    def test_probe_failure_keeps_degraded(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.degraded

    def test_reset_forces_healthy(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert breaker.healthy

    def test_as_dict_and_validation(self):
        breaker = CircuitBreaker()
        state = breaker.as_dict()
        assert state["state"] == HEALTHY
        assert state["opened"] == 0
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_interval=0)


def degraded_serving(burst, failure_threshold=3, probe_interval=3):
    """A serving facade over a fault-injecting hospital engine."""
    graph = hospital_schema()
    base = MemoryEngine()
    graph.install(base)
    populate_hospital(base, HospitalConfig(patients=3))
    faulty = FaultInjectingEngine(
        base, FaultPlan().add(fault("transient", ("mutation",), times=burst))
    )
    session = Penguin(graph, engine=faulty, install=False)
    session.register_object(patient_chart_object(graph))
    breaker = CircuitBreaker(
        failure_threshold=failure_threshold, probe_interval=probe_interval
    )
    serving = ConcurrentPenguin(session, breaker=breaker)
    serving.materialize(OBJECT, LAZY)
    return base, serving


def trip(base, serving):
    """Burn the fault burst on writes until the breaker opens."""
    pids = sorted(row[0] for row in base.scan("PATIENT"))
    for pid in pids:
        if serving.breaker.degraded:
            break
        with pytest.raises(TransientEngineError):
            serving.delete(OBJECT, (pid,))
    assert serving.breaker.degraded
    return pids


@pytest.mark.timeout(30)
class TestDegradedServing:
    def test_fault_burst_opens_the_breaker(self):
        base, serving = degraded_serving(burst=3)
        trip(base, serving)
        assert serving.breaker.opened == 1

    def test_writes_fail_fast_while_degraded(self):
        base, serving = degraded_serving(burst=3, probe_interval=100)
        pids = trip(base, serving)
        mutations_before = serving.engine.operation_count("delete")
        with pytest.raises(DegradedServiceError):
            serving.delete(OBJECT, (pids[-1],))
        # Fail-fast means the engine was never contacted.
        assert serving.engine.operation_count("delete") == mutations_before

    def test_reads_served_stale_and_flagged(self):
        base, serving = degraded_serving(burst=3, probe_interval=100)
        healthy_extent = len(serving.query(OBJECT))  # warm the cache
        trip(base, serving)
        view = serving.materialized(OBJECT)
        assert view.stats.stale_reads == 0
        instances = serving.query(OBJECT)
        assert len(instances) == healthy_extent
        assert view.stats.stale_reads == 1
        assert serving.health()["stale_reads"] == 1

    def test_stale_get_refuses_uncached_key(self):
        base, serving = degraded_serving(burst=3, probe_interval=100)
        pids = trip(base, serving)
        with pytest.raises(DegradedServiceError):
            serving.get(OBJECT, (pids[0],))  # never cached

    def test_filtered_query_refuses_while_degraded(self):
        base, serving = degraded_serving(burst=3, probe_interval=100)
        serving.query(OBJECT)
        trip(base, serving)
        with pytest.raises(DegradedServiceError):
            serving.query(OBJECT, "name = 'nobody'")

    def test_degraded_without_cache_refuses_reads(self):
        base, serving = degraded_serving(burst=3, probe_interval=100)
        serving.dematerialize(OBJECT)
        trip(base, serving)
        with pytest.raises(DegradedServiceError):
            serving.query(OBJECT)

    def test_breaker_closes_after_plan_exhausted(self):
        """Once the fault plan is spent, a probe read succeeds, the
        breaker closes, and writes flow again."""
        base, serving = degraded_serving(burst=3, probe_interval=3)
        healthy_extent = len(serving.query(OBJECT))
        pids = trip(base, serving)
        assert all(rule.exhausted for rule in serving.engine.plan.rules)

        reads = 0
        while serving.breaker.degraded:
            assert len(serving.query(OBJECT)) == healthy_extent
            reads += 1
            assert reads <= 10 * serving.breaker.probe_interval
        assert serving.breaker.closed == 1
        assert serving.materialized(OBJECT).stats.stale_reads > 0

        plan = serving.delete(OBJECT, (pids[0],))
        assert len(plan) > 0
        assert base.get("PATIENT", (pids[0],)) is None

    def test_a_rejected_probe_closes_the_breaker(self):
        """A rejection is an answer: the probe that carried it reached
        the engine, write or read."""
        for probe in (
            lambda serving: serving.delete(OBJECT, (999_999,)),
            lambda serving: serving.query(OBJECT, "nosuch = 1"),
        ):
            base, serving = degraded_serving(
                burst=1, failure_threshold=1, probe_interval=1
            )
            trip(base, serving)
            with pytest.raises((UpdateError, QueryError)):
                probe(serving)
            assert serving.breaker.healthy
            assert serving.breaker.closed == 1

    def test_a_rejection_between_two_faults_breaks_the_streak(self):
        base, serving = degraded_serving(
            burst=2, failure_threshold=2, probe_interval=1
        )
        pids = sorted(row[0] for row in base.scan("PATIENT"))
        with pytest.raises(TransientEngineError):
            serving.delete(OBJECT, (pids[0],))
        with pytest.raises(UpdateError):
            serving.delete(OBJECT, (999_999,))
        with pytest.raises(TransientEngineError):
            serving.delete(OBJECT, (pids[1],))
        assert serving.breaker.healthy
        assert serving.breaker.opened == 0

    def test_validation_errors_do_not_trip_the_breaker(self):
        base, serving = degraded_serving(burst=0)
        for _ in range(5):
            with pytest.raises(Exception) as excinfo:
                serving.delete(OBJECT, (999_999,))  # no such patient
            assert not isinstance(excinfo.value, TransientEngineError)
        assert serving.breaker.healthy
        assert serving.breaker.failures == 0
