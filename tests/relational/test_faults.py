"""The deterministic fault-injection harness."""

import pytest

from repro.errors import TransientEngineError
from repro.relational.ddl import relation
from repro.relational.faults import (
    FaultInjectingEngine,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
)
from repro.relational.memory_engine import MemoryEngine
from tests.conftest import fault

pytestmark = pytest.mark.chaos

ITEMS = relation("ITEMS").integer("item_id").text("label").key("item_id").build()


def make_engine(plan=None):
    base = MemoryEngine()
    base.create_relation(ITEMS)
    return base, FaultInjectingEngine(base, plan)


class TestFaultRules:
    def test_group_matching(self):
        rule = FaultRule("transient", ("mutation",))
        assert rule.matches("insert")
        assert rule.matches("clear")
        assert not rule.matches("get")
        assert FaultRule("transient", ("*",)).matches("commit")
        assert FaultRule("transient", ("get",)).matches("get")

    def test_at_fires_once_on_nth_match(self):
        plan = FaultPlan().add(FaultRule("transient", ("insert",), at=2))
        _, engine = make_engine(plan)
        engine.insert("ITEMS", (1, "a"))
        with pytest.raises(TransientEngineError):
            engine.insert("ITEMS", (2, "b"))
        engine.insert("ITEMS", (2, "b"))  # rule exhausted
        assert all(rule.exhausted for rule in plan.rules)
        assert engine.injected["transient"] == 1

    def test_rate_is_deterministic_per_seed(self):
        def histories(seed):
            plan = FaultPlan(seed).add(fault("transient", ("insert",), rate=0.5))
            _, engine = make_engine(plan)
            for i in range(40):
                try:
                    engine.insert("ITEMS", (i, "x"))
                except TransientEngineError:
                    pass
            return tuple(engine.history)

        assert histories(3) == histories(3)
        assert histories(3) != histories(4)

    def test_burst_caps_fires(self):
        plan = FaultPlan().add(fault("transient", ("insert",), times=2))
        _, engine = make_engine(plan)
        for i in range(2):
            with pytest.raises(TransientEngineError):
                engine.insert("ITEMS", (i, "x"))
        engine.insert("ITEMS", (7, "x"))
        assert all(rule.exhausted for rule in plan.rules)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("meltdown")


class TestSimulatedCrash:
    def test_crash_is_not_an_exception(self):
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

    def test_crash_bypasses_rollback_handlers(self):
        """``except Exception`` cleanup must not swallow a crash."""
        plan = FaultPlan().add(FaultRule("crash", ("insert",), at=2))
        base, engine = make_engine(plan)
        with pytest.raises(SimulatedCrash):
            engine.insert_many("ITEMS", [(1, "a"), (2, "b"), (3, "c")])
        # The generic loop's rollback never ran: the first insert is
        # still there, mid-transaction, exactly like after a kill -9.
        assert engine.in_transaction
        assert base.get("ITEMS", (1,)) is not None

    def test_crash_carries_location(self):
        plan = FaultPlan().add(FaultRule("crash", ("delete",), at=1))
        base, engine = make_engine(plan)
        base.insert("ITEMS", (1, "a"))
        with pytest.raises(SimulatedCrash) as excinfo:
            engine.delete("ITEMS", (1,))
        assert excinfo.value.operation == "delete"
        assert excinfo.value.index == 1


class TestLatency:
    def test_latency_sleeps_and_proceeds(self):
        plan = FaultPlan().add(fault("latency", ("insert",), times=1, delay=0.01))
        _, engine = make_engine(plan)
        slept = []
        engine.hook._sleep = slept.append
        engine.insert("ITEMS", (1, "a"))
        engine.insert("ITEMS", (2, "b"))
        assert slept == [0.01]
        assert engine.injected["latency"] == 1


class TestWrapperTransparency:
    def test_rollback_is_never_ticked(self):
        plan = FaultPlan().add(FaultRule("transient", ("*",)))
        base, engine = make_engine(plan)
        base.begin()
        engine.rollback()  # would raise if ticked
        assert not engine.in_transaction

    def test_changelog_and_counters_pass_through(self):
        base, engine = make_engine()
        assert engine.changelog is base.changelog
        engine.insert("ITEMS", (1, "a"))
        assert engine.operation_counters()["insert"] == 1
        assert engine.operation_count("insert") == 1

    def test_plan_reset_replays_identically(self):
        plan = FaultPlan(seed=5).add(fault("transient", ("insert",), rate=0.3))
        _, engine = make_engine(plan)

        def run():
            out = []
            for i in range(20):
                try:
                    engine.insert("ITEMS", (100 + i, "x"))
                    engine.delete("ITEMS", (100 + i,))
                except TransientEngineError:
                    out.append(i)
            return out

        first = run()
        plan.reset()
        assert run() == first
