"""Self-time arithmetic: a span's duration minus what its children cover."""

import pytest

from benchmarks.e2e.trace import Recorder, Span, covered, layer_of, self_times


def span(sid, name, start, end, parent=None, rids=(0,)):
    s = Span(sid, name, start, parent, tuple(rids), None)
    s.end = end
    return s


def test_covered_merges_overlapping_children():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == pytest.approx(5.0)


def test_covered_clips_children_to_the_parent():
    assert covered((2.0, 5.0), [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(2.0)


def test_covered_ignores_children_outside_and_nested_duplicates():
    assert covered((0.0, 4.0), [(5.0, 6.0)]) == 0.0
    assert covered((0.0, 4.0), [(1.0, 3.0), (1.5, 2.5)]) == pytest.approx(2.0)


def test_self_time_is_span_minus_children():
    spans = [
        span(0, "core.updates.insert", 0.0, 10.0),
        span(1, "relational.engine.read", 1.0, 3.0, parent=0),
        span(2, "relational.journal.begin", 4.0, 5.0, parent=0),
        span(3, "relational.engine.read", 4.2, 4.4, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(7.0)   # 10 - (2 + 1); grandchild not twice
    assert selfs[2] == pytest.approx(0.8)
    assert selfs[1] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_subtracted_once():
    spans = [
        span(0, "replicate.apply_plan", 0.0, 8.0),
        span(1, "replicate.receive", 1.0, 5.0, parent=0),
        span(2, "replicate.receive", 3.0, 7.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_server_spans_attach_to_the_client_span_by_request_id():
    spans = [
        span(0, "serve.request", 0.0, 10.0, rids=(7,)),
        span(1, "serve.request", 0.5, 9.0, rids=(8,)),
        # one folded batch serving both requests, on an executor thread
        span(2, "shard.apply_plan_batch", 4.0, 8.0, rids=(7, 8)),
        span(3, "core.updates.explain_batch", 4.5, 6.5, parent=2, rids=(7, 8)),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(6.0)
    assert selfs[1] == pytest.approx(4.5)
    assert selfs[2] == pytest.approx(2.0)


def test_child_cost_is_taken_off_once_per_in_thread_child():
    spans = [
        span(0, "core.updates.insert", 0.0, 10.0),
        span(1, "relational.engine.read", 1.0, 2.0, parent=0),
        span(2, "relational.engine.read", 3.0, 4.0, parent=0),
    ]
    assert self_times(spans, child_cost=0.5)[0] == pytest.approx(7.0)
    assert self_times(spans, child_cost=100.0)[0] == 0.0


def test_layer_of_maps_span_names_to_modules():
    assert layer_of("relational.engine.read") == "relational.engine"
    assert layer_of("core.updates.explain_batch") == "core.updates"
    assert layer_of("serve.request") == "serve"


def test_recorder_parents_come_from_the_thread_stack():
    rec = Recorder()
    rec.current_rid = 5
    outer = rec.open("core.updates.insert")
    inner = rec.open("relational.engine.read")
    rec.close(inner)
    rec.close(outer)
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.rids == outer.rids == (5,)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert rec.span_cost_outside(samples=50) >= 0.0
    assert len(rec.spans) == 2  # calibration leaves no spans behind
