"""The slow-operations report of ``python -m repro trace``: a filter over
the tracer's retained root spans, applied when the report is printed."""

import argparse

import pytest

from repro.__main__ import _non_negative_seconds, _slow_operations
from repro.obs.trace import Tracer
from tests.obs.test_trace import FakeClock


def finished_roots(step, *names):
    tracer = Tracer(clock=FakeClock(step=step))
    for name in names:
        with tracer.span(name):
            pass
    return tracer.roots()


class TestSlowLog:
    def test_retains_only_slow_spans(self):
        roots = finished_roots(1.0, "fast") + finished_roots(10.0, "slow")
        assert [line.split()[0] for line in _slow_operations(roots, 5.0)] == [
            "slow"
        ]

    def test_exactly_at_threshold_is_not_logged(self):
        """The boundary is exclusive: "slower than", not "as slow as"."""
        roots = finished_roots(1.0, "exact")
        assert roots[0].duration == 1.0  # precondition: exactly on the line
        assert _slow_operations(roots, 1.0) == []

    def test_epsilon_over_threshold_is_logged(self):
        roots = finished_roots(1.0 + 1e-6, "barely")
        assert roots[0].duration > 1.0
        assert [line.split()[0] for line in _slow_operations(roots, 1.0)] == [
            "barely"
        ]

    def test_zero_threshold_retains_everything(self):
        roots = finished_roots(1.0, "anything")
        assert len(_slow_operations(roots, 0.0)) == 1

    def test_capacity_is_a_ring(self):
        """The report reads what the tracer still retains: its ring."""
        names = [f"s{index}" for index in range(Tracer.CAPACITY + 2)]
        lines = _slow_operations(finished_roots(1.0, *names), 0.0)
        assert [line.split()[0] for line in lines] == names[2:]

    def test_entry_carries_attributes_and_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("broken", relation="COURSES"):
                raise RuntimeError("disk on fire")
        (line,) = _slow_operations(tracer.roots(), 0.0)
        assert line.startswith("broken 1000.000ms relation=COURSES")
        assert "disk on fire" in line

    def test_validates_parameters(self):
        assert _non_negative_seconds("0") == 0.0
        with pytest.raises(argparse.ArgumentTypeError):
            _non_negative_seconds("-1")
