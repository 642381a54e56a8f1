"""Trace-context propagation: ids, traceparent, threads, asyncio."""

import asyncio
import threading

import pytest

import repro.obs as obs
from repro.obs.context import (
    TraceContext,
    activate,
    attach,
    current_context,
    current_trace_id,
    format_traceparent,
    new_request_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)


class TestIds:
    def test_widths_and_uniqueness(self):
        trace_ids = {new_trace_id() for _ in range(200)}
        span_ids = {new_span_id() for _ in range(200)}
        assert len(trace_ids) == 200
        assert len(span_ids) == 200
        assert all(len(t) == 32 for t in trace_ids)
        assert all(len(s) == 16 for s in span_ids)
        hexdigits = set("0123456789abcdef")
        assert all(set(t) <= hexdigits for t in trace_ids)

    def test_request_id_prefix(self):
        assert new_request_id().startswith("req-")


class TestTraceContext:
    def test_new_carries_request_id(self):
        ctx = TraceContext.new("req-42")
        assert ctx.request_id == "req-42"
        assert len(ctx.trace_id) == 32

    def test_child_keeps_trace_and_baggage(self):
        ctx = TraceContext.new("req-7")
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id
        assert child.request_id == "req-7"

    def test_dict_round_trip(self):
        ctx = TraceContext("a" * 32, "b" * 16, {"request_id": "req-1"})
        assert TraceContext.from_dict(ctx.as_dict()) == ctx


class TestTraceparent:
    def test_round_trip(self):
        ctx = TraceContext("ab" * 16, "cd" * 8)
        parsed = parse_traceparent(format_traceparent(ctx))
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-0123456789abcdef-01",
            "00-" + "g" * 32 + "-0123456789abcdef-01",  # non-hex
            "00-" + "0" * 32 + "-0123456789abcdef-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "ff-" + "a" * 32 + "-0123456789abcdef-01",  # invalid version
            "00-" + "a" * 32 + "-0123456789abcdef",  # missing flags
        ],
    )
    def test_malformed_is_none(self, header):
        assert parse_traceparent(header) is None

    def test_unknown_version_parses_leniently(self):
        parsed = parse_traceparent("42-" + "a" * 32 + "-" + "b" * 16 + "-00")
        assert parsed is not None
        assert parsed.trace_id == "a" * 32


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None
        assert current_trace_id() is None

    def test_attach_none_is_noop(self):
        with attach(None) as got:
            assert got is None
            assert current_context() is None

    def test_attach_restores_previous(self):
        outer = TraceContext.new("req-outer")
        inner = TraceContext.new("req-inner")
        with attach(outer):
            with attach(inner):
                assert current_context().request_id == "req-inner"
            assert current_context().request_id == "req-outer"
        assert current_context() is None

    def test_activate_mints_trace(self):
        with activate(request_id="req-9", tenant="t1") as ctx:
            assert current_trace_id() == ctx.trace_id
            assert ctx.baggage["tenant"] == "t1"
        assert current_context() is None

    def test_fresh_thread_sees_no_context(self):
        seen = {}
        with activate(request_id="req-main"):

            def probe():
                seen["ctx"] = current_context()

            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["ctx"] is None

    def test_explicit_cross_thread_handoff(self):
        seen = {}
        ctx = TraceContext.new("req-handoff")

        def work():
            with attach(ctx):
                seen["trace"] = current_trace_id()

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        assert seen["trace"] == ctx.trace_id


class TestRootSpanStamping:
    def test_root_span_takes_ambient_trace(self):
        with obs.use() as hub:
            with activate(request_id="req-stamp") as ctx:
                with hub.tracer.span("outer"):
                    with hub.tracer.span("inner"):
                        pass
            (root,) = hub.tracer.take()
            assert root.trace_id == ctx.trace_id
            assert root.span_id
            # children inherit at assembly time, not per-span
            assert root.children[0].trace_id is None

    def test_untraced_root_has_no_trace_id(self):
        with obs.use() as hub:
            with hub.tracer.span("bare"):
                pass
            (root,) = hub.tracer.take()
            assert root.trace_id is None


class TestAsyncioOverlap:
    def test_two_overlapping_requests_keep_separate_stacks(self):
        """Regression: thread-local span stacks collapsed overlapping
        asyncio requests (same loop thread) into one interleaved tree.
        contextvars give each task an isolated stack copy."""

        async def scenario(hub):
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def request(name, my_gate, other_gate):
                with activate(request_id=f"req-{name}") as ctx:
                    with hub.tracer.span(f"http.{name}") as span:
                        my_gate.set()
                        await other_gate.wait()
                        with hub.tracer.span(f"work.{name}"):
                            await asyncio.sleep(0)
                    return ctx.trace_id, span

            return await asyncio.gather(
                request("a", gate_a, gate_b),
                request("b", gate_b, gate_a),
            )

        with obs.use() as hub:
            results = asyncio.run(scenario(hub))
            roots = hub.tracer.take()
        assert len(roots) == 2
        by_name = {root.name: root for root in roots}
        assert set(by_name) == {"http.a", "http.b"}
        # each request's child nested under its own root, not the
        # other in-flight request's
        assert [c.name for c in by_name["http.a"].children] == ["work.a"]
        assert [c.name for c in by_name["http.b"].children] == ["work.b"]
        traces = {trace for trace, _ in results}
        assert len(traces) == 2
        assert {root.trace_id for root in roots} == traces
