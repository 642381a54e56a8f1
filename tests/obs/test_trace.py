"""Unit tests for the tracer: span trees, ring buffer, export."""

import io
import json
import threading

import pytest

from repro.obs.trace import NOOP_TRACER, Tracer


class FakeClock:
    """A deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def tracer():
    return Tracer(clock=FakeClock())


class TestSpanTree:
    def test_nesting_builds_a_tree(self, tracer):
        with tracer.span("root"):
            with tracer.span("child.a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child.b"):
                pass
        (root,) = tracer.roots()
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_attributes_at_open_and_via_set(self, tracer):
        with tracer.span("op", relation="COURSES") as span:
            span.set(ops=3, cache="hit")
        (root,) = tracer.roots()
        assert root.attributes == {
            "relation": "COURSES",
            "ops": 3,
            "cache": "hit",
        }

    def test_durations_come_from_the_clock(self, tracer):
        with tracer.span("timed"):
            pass
        (root,) = tracer.roots()
        assert root.duration == 1.0  # one clock step between push and pop

    def test_exception_is_recorded_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (root,) = tracer.roots()
        assert root.error == "ValueError: boom"

    def test_find_and_iter(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        (root,) = tracer.roots()
        assert root.find("c").name == "c"
        assert root.find("zzz") is None
        assert [s.name for s in root.iter_spans()] == ["a", "b", "c"]

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        tracer = Tracer(clock=FakeClock())
        for index in range(Tracer.CAPACITY + 1):
            with tracer.span(f"span{index}"):
                pass
        roots = tracer.roots()
        assert len(roots) == Tracer.CAPACITY
        assert [r.name for r in roots[:2]] == ["span1", "span2"]
        assert tracer.dropped == 1

    def test_take_drains(self, tracer):
        with tracer.span("one"):
            pass
        assert len(tracer.take()) == 1
        assert tracer.roots() == ()


class TestDisabled:
    def test_disabled_tracer_hands_out_noop(self):
        with NOOP_TRACER.span("anything", x=1) as span:
            span.set(y=2)
        assert NOOP_TRACER.roots() == ()

    def test_reenabling_at_runtime(self):
        tracer = Tracer(clock=FakeClock(), enabled=False)
        with tracer.span("invisible"):
            pass
        tracer.enabled = True
        with tracer.span("visible"):
            pass
        assert [r.name for r in tracer.roots()] == ["visible"]


class TestThreads:
    def test_each_thread_gets_its_own_stack(self):
        tracer = Tracer(clock=FakeClock())
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait()
            with tracer.span(f"thread{index}"):
                with tracer.span("inner"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = tracer.roots()
        assert len(roots) == 4  # four independent roots, no cross-nesting
        assert all(len(root.children) == 1 for root in roots)


class TestExport:
    def test_render_tree_shape(self, tracer):
        with tracer.span("translate", op="insert"):
            with tracer.span("validate"):
                pass
        text = tracer.render(show_durations=False)
        assert text == "translate op=insert\n  validate"

    def test_normalized_strips_durations(self, tracer):
        with tracer.span("x"):
            pass
        (root,) = tracer.roots()
        assert "ms" in root.render()
        assert "ms" not in root.normalized()

    def test_jsonl_round_trip(self, tracer):
        with tracer.span("root", op="insert"):
            with tracer.span("child"):
                pass
        sink = io.StringIO()
        assert tracer.export_jsonl(sink) == 1
        (line,) = sink.getvalue().splitlines()
        data = json.loads(line)
        assert data["name"] == "root"
        assert data["attributes"] == {"op": "insert"}
        assert data["children"][0]["name"] == "child"

    def test_jsonl_export_parse_rebuilds_the_same_span_forest(
        self, tracer, tmp_path
    ):
        """Full round trip: export → parse → identical tree structure
        (names, attributes, errors, and child nesting for every root).
        """
        with tracer.span("translate", op="insert", object="course_info"):
            with tracer.span("validate"):
                pass
            with tracer.span("apply", relation="COURSES"):
                with tracer.span("statement"):
                    pass
        with pytest.raises(RuntimeError):
            with tracer.span("broken"):
                raise RuntimeError("boom")
        target = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(target)) == 2
        parsed = [
            json.loads(line)
            for line in target.read_text().splitlines()
            if line.strip()
        ]
        assert parsed == [root.to_dict() for root in tracer.roots()]

        def shape(node):
            return (
                node["name"],
                node.get("attributes", {}),
                node.get("error"),
                [shape(child) for child in node.get("children", [])],
            )

        assert shape(parsed[0]) == (
            "translate",
            {"op": "insert", "object": "course_info"},
            None,
            [
                ("validate", {}, None, []),
                (
                    "apply",
                    {"relation": "COURSES"},
                    None,
                    [("statement", {}, None, [])],
                ),
            ],
        )
        assert shape(parsed[1])[0] == "broken"
        assert "boom" in parsed[1]["error"]

    def test_jsonl_to_path(self, tracer, tmp_path):
        with tracer.span("root"):
            pass
        target = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(target)) == 1
        assert json.loads(target.read_text())["name"] == "root"
