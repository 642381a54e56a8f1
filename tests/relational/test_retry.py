"""Retry policy: classification, backoff, and engine integration."""

import sqlite3

import pytest

from repro.errors import TransientEngineError, UpdateError
from repro.relational.ddl import relation
from repro.relational.faults import FaultInjectingEngine, FaultPlan, SimulatedCrash
from repro.relational.memory_engine import MemoryEngine
from repro.relational.retry import RetryPolicy, is_transient_error
from tests.conftest import fault

ITEMS = relation("ITEMS").integer("item_id").text("label").key("item_id").build()

no_sleep = lambda _: None  # noqa: E731


class TestClassification:
    def test_transient_engine_error(self):
        assert is_transient_error(TransientEngineError("locked"))

    def test_sqlite_busy_and_locked(self):
        assert is_transient_error(sqlite3.OperationalError("database is locked"))
        assert is_transient_error(sqlite3.OperationalError("database is busy"))
        assert not is_transient_error(sqlite3.OperationalError("no such table: X"))

    def test_everything_else_is_permanent(self):
        assert not is_transient_error(ValueError("nope"))
        assert not is_transient_error(UpdateError("rejected"))


class TestRunLoop:
    def test_absorbs_transients_within_budget(self):
        slept = []
        policy = RetryPolicy(sleep=slept.append)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientEngineError("locked")
            return "ok"

        assert policy.run(flaky) == "ok"
        assert len(calls) == 3 and len(slept) == 2

    def test_gives_up_after_budget(self):
        slept = []
        policy = RetryPolicy(sleep=slept.append)
        calls = []

        def always():
            calls.append(1)
            raise TransientEngineError("locked")

        with pytest.raises(TransientEngineError):
            policy.run(always)
        assert len(calls) == RetryPolicy.MAX_ATTEMPTS
        assert len(slept) == RetryPolicy.MAX_ATTEMPTS - 1  # none after the last

    def test_permanent_errors_not_retried(self):
        slept = []
        policy = RetryPolicy(sleep=slept.append)
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            policy.run(broken)
        assert len(calls) == 1
        assert slept == []

    def test_crash_is_never_caught(self):
        policy = RetryPolicy(sleep=no_sleep)
        calls = []

        def dying():
            calls.append(1)
            raise SimulatedCrash("insert", 1)

        with pytest.raises(SimulatedCrash):
            policy.run(dying)
        assert len(calls) == 1


def backoff_bounds(retry_index):
    """The jittered sleep before the Nth retry lies in ``[low, high]``."""
    high = min(RetryPolicy.MAX_DELAY, RetryPolicy.BASE_DELAY * 2 ** retry_index)
    return high * (1.0 - RetryPolicy.JITTER), high


class TestBackoff:
    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(seed=3)
        for index in (0, 1, 2, 5, 20):
            low, high = backoff_bounds(index)
            assert low <= policy.delay(index) <= high
        assert backoff_bounds(1)[1] == pytest.approx(2 * backoff_bounds(0)[1])
        assert backoff_bounds(20)[1] == RetryPolicy.MAX_DELAY  # capped

    def test_jitter_is_seeded(self):
        a = RetryPolicy(seed=11)
        b = RetryPolicy(seed=11)
        assert [a.delay(i) for i in range(4)] == [b.delay(i) for i in range(4)]

    def test_sleeps_follow_schedule(self):
        slept = []
        policy = RetryPolicy(sleep=slept.append)
        attempts = [0]

        def flaky():
            attempts[0] += 1
            if attempts[0] < 4:
                raise TransientEngineError("locked")

        policy.run(flaky)
        assert len(slept) == 3
        for index, seconds in enumerate(slept):
            low, high = backoff_bounds(index)
            assert low <= seconds <= high


class TestEngineIntegration:
    def make_faulty(self, plan, slept):
        base = MemoryEngine()
        base.create_relation(ITEMS)
        engine = FaultInjectingEngine(base, plan)
        engine.retry_policy = RetryPolicy(sleep=slept.append)
        return base, engine

    def test_insert_many_survives_transients(self):
        slept = []
        base, engine = self.make_faulty(
            FaultPlan(seed=2).add(fault("transient", ("insert",), rate=0.3, times=5)), slept
        )
        rows = [(i, f"r{i}") for i in range(20)]
        keys = engine.insert_many("ITEMS", rows)
        assert len(keys) == 20
        assert base.count("ITEMS") == 20
        # every injected transient was absorbed by one retry
        assert len(slept) == engine.injected["transient"] > 0

    def test_insert_many_gives_up_on_persistent_fault(self):
        slept = []
        base, engine = self.make_faulty(
            FaultPlan().add(fault("transient", ("insert",), times=100)), slept
        )
        with pytest.raises(TransientEngineError):
            engine.insert_many("ITEMS", [(1, "a")])
        assert len(slept) == RetryPolicy.MAX_ATTEMPTS - 1
        assert not engine.in_transaction  # batch loop rolled back
        assert base.count("ITEMS") == 0
