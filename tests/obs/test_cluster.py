"""Cluster observability: one registry across the topology,
quantiles, SLOs, assembly, and the flight recorder."""

import json

import pytest

import repro.obs as obs
from repro.obs.cluster import (
    FlightRecorder,
    SloTracker,
    TraceAssembler,
    histogram_quantile,
)
from repro.obs.context import TraceContext, activate, attach
from repro.obs.metrics import Histogram
from tests.conftest import counter_total


def label_values(registry, name, label):
    """Distinct values ``label`` takes across one counter family, sorted."""
    return sorted({
        value
        for counter in registry.counters(name)
        for pair_label, value in counter.labels
        if pair_label == label
    })


class TestOneRegistry:
    def test_label_values_across_shards_and_replicas(self):
        with obs.use() as hub:
            hub.metrics.counter("reads_total", shard="0").inc()
            hub.metrics.counter("reads_total", shard="1").inc()
            hub.metrics.counter("reads_total", shard="1", replica="r1").inc()
            assert label_values(hub.metrics, "reads_total", "shard") == [
                "0",
                "1",
            ]
            assert label_values(hub.metrics, "reads_total", "replica") == [
                "r1"
            ]
            assert counter_total(hub.metrics, "reads_total") == 3

    def test_merged_histogram_adds_buckets(self):
        with obs.use() as hub:
            hub.metrics.histogram("lat_ms", shard="0").observe(4)
            hub.metrics.histogram("lat_ms", shard="1").observe(4)
            hub.metrics.histogram("lat_ms", shard="1").observe(700)
            merged = Histogram("lat_ms")
            for part in hub.metrics.histograms("lat_ms"):
                merged.merge(part)
            assert merged.count == 3
            assert merged.bucket_counts()["le=5"] == 2
            with pytest.raises(ValueError):
                merged.merge(Histogram("lat_ms", buckets=(1, 2)))


def histogram_of(bounds, counts):
    """A histogram with ``counts[i]`` observations at ``bounds[i]`` and
    the rest (one past the bounds) in the +Inf bucket."""
    histogram = Histogram("h", buckets=bounds)
    for bound, count in zip(tuple(bounds) + (bounds[-1] * 10,), counts):
        for _ in range(count):
            histogram.observe(bound)
    return histogram


class TestHistogramQuantile:
    def histogram(self):
        return histogram_of((1.0, 10.0, 100.0), (50, 40, 10, 0))

    def test_interpolates_within_bucket(self):
        # rank 50 lands exactly at the first bucket's upper bound
        assert histogram_quantile(self.histogram(), 0.5) == pytest.approx(1.0)
        # p90: rank 90 is 40/40 of the (1, 10] bucket
        assert histogram_quantile(self.histogram(), 0.9) == pytest.approx(10.0)

    def test_inf_bucket_clamps(self):
        data = histogram_of((1.0, 10.0), (0, 0, 10))
        assert histogram_quantile(data, 0.99) == 10.0

    def test_empty_is_none(self):
        assert histogram_quantile(Histogram("h", buckets=(1.0,)), 0.5) is None

    def test_live_histogram(self):
        with obs.use() as hub:
            histogram = hub.metrics.histogram("q_ms")
            for value in (3, 3, 3, 900):
                histogram.observe(value)
            assert histogram_quantile(histogram, 0.5) <= 5

    def test_bad_quantile_raises(self):
        with pytest.raises(ValueError):
            histogram_quantile(self.histogram(), 1.5)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestSloTracker:
    """The server's two objectives (``SLOS``) over the families it records."""

    def test_attainment_and_burn(self):
        clock = FakeClock()
        with obs.use() as hub:
            tracker = SloTracker(clock=clock)
            requests = "serve_http_requests_total"
            hub.metrics.counter(requests, status="200").inc(999)
            hub.metrics.counter(requests, status="500").inc(1)
            tracker.sample()
            clock.now += 30
            hub.metrics.counter(requests, status="200").inc(999)
            hub.metrics.counter(requests, status="500").inc(1)
            report = tracker.sample()
            entry = report["availability"]
            assert entry["attainment"] == pytest.approx(0.999)
            # 0.1% errors against a 0.1% budget: burn rate 1.0
            assert entry["burn"]["fast"] == pytest.approx(1.0)
            assert not entry["fast_burn"]
            gauges = hub.metrics.snapshot()["gauges"]
            assert 'slo_attainment{slo="availability"}' in gauges

    def test_fast_burn_fires_anomaly_once(self):
        clock = FakeClock()
        with obs.use() as hub:
            tracker = SloTracker(clock=clock)
            tracker.sample()
            for _ in range(3):
                clock.now += 10
                hub.metrics.counter(
                    "serve_http_requests_total", status="500"
                ).inc(50)
                tracker.sample()
            counters = hub.metrics.snapshot()["counters"]
            # transition-edge only: one anomaly despite three burning polls
            assert counters.get('anomalies_total{kind="slo_fast_burn"}') == 1

    def test_too_few_events_is_quiet(self):
        clock = FakeClock()
        with obs.use() as hub:
            tracker = SloTracker(clock=clock)
            tracker.sample()
            clock.now += 10
            hub.metrics.counter(
                "serve_http_requests_total", status="500"
            ).inc(3)
            report = tracker.sample()
            assert report["availability"]["burn"]["fast"] is None
            assert not report["availability"]["fast_burn"]

    def test_latency_target_estimates_quantile(self):
        clock = FakeClock()
        with obs.use() as hub:
            tracker = SloTracker(clock=clock)
            histogram = hub.metrics.histogram("serve_write_ms")
            for _ in range(19):
                histogram.observe(4)
            histogram.observe(900)
            report = tracker.sample()
            entry = report["write_latency"]
            assert entry["attainment"] == pytest.approx(0.95)
            assert entry["threshold_ms"] == 250.0
            assert entry["p95_ms"] <= 260


class TestTraceAssembler:
    def test_fragments_group_by_trace(self):
        with obs.use() as hub:
            ctx = TraceContext.new("req-asm")
            with attach(ctx):
                with hub.tracer.span("http.request", request_id="req-asm"):
                    pass
            with attach(ctx):
                with hub.tracer.span("replica.apply", replica="r1"):
                    pass
            with activate(request_id="req-other"):
                with hub.tracer.span("http.request", request_id="req-other"):
                    pass
            assembler = TraceAssembler(hub.tracer)
            other = assembler.assemble(request_id="req-other")
            assert other.trace_id != ctx.trace_id and len(other.fragments) == 1
            assembled = assembler.assemble(request_id="req-asm")
            assert assembled.trace_id == ctx.trace_id
            assert len(assembled.fragments) == 2
            assert assembled.span_names() == ["http.request", "replica.apply"]
            assert assembled.request_id == "req-asm"

    def test_render_names_causal_parent(self):
        with obs.use() as hub:
            ctx = TraceContext.new("req-render")
            with attach(ctx):
                with hub.tracer.span("http.request", request_id="req-render"):
                    pass
            assembler = TraceAssembler(hub.tracer)
            text = assembler.assemble(request_id="req-render").render()
            assert text.startswith(f"trace {ctx.trace_id}")
            # the fragment names the context's span as its cause
            assert f"caused_by={ctx.span_id}" in text

    def test_assemble_unknown_is_none(self):
        with obs.use() as hub:
            assembler = TraceAssembler(hub.tracer)
            assert assembler.assemble(request_id="req-missing") is None


class TestFlightRecorder:
    def test_trigger_writes_bundle(self, tmp_path):
        with obs.use() as hub:
            with activate(request_id="req-flight"):
                with hub.tracer.span("http.request", request_id="req-flight"):
                    pass
            hub.metrics.counter("writes_total").inc(4)
            recorder = FlightRecorder(str(tmp_path))
            recorder.add_source("notes", lambda: [{"k": "v"}])
            path = recorder.trigger("failover", {"shard": 0})
            records = FlightRecorder.load(path)
            assert records[0]["anomaly"] == "failover"
            assert records[0]["detail"] == {"shard": 0}
            sections = {r.get("section") for r in records[1:]}
            assert {"spans", "metrics", "notes"} <= sections
            text = FlightRecorder.inspect(path)
            assert "anomaly: failover" in text
            assert "http.request" in text

    def test_rate_limit_per_kind(self, tmp_path):
        with obs.use() as hub:
            recorder = FlightRecorder(str(tmp_path))
            first = recorder.trigger("breaker_open")
            second = recorder.trigger("breaker_open")
            other = recorder.trigger("failover")
            assert first is not None
            assert second is None  # suppressed
            assert other is not None  # different kind, own budget
            assert recorder.suppressed == 1

    def test_anomaly_wiring_through_hub(self, tmp_path):
        with obs.use() as hub:
            recorder = FlightRecorder(str(tmp_path)).install()
            obs.anomaly("quorum_revert", shard=1)
            assert recorder.latest() is not None
            counters = hub.metrics.snapshot()["counters"]
            assert (
                counters['anomalies_total{kind="quorum_revert"}'] == 1
            )
            assert (
                counters['flight_bundles_total{kind="quorum_revert"}'] == 1
            )

    def test_audit_source_tail(self, tmp_path):
        from repro.obs.audit import MemoryAuditLog

        with obs.use() as hub:
            log = MemoryAuditLog()
            with activate(request_id="req-audit"):
                log.append(
                    op="insert",
                    object_name="patient_chart",
                    outcome="committed",
                )
            recorder = FlightRecorder(str(tmp_path))
            recorder.add_audit_source("audit/shard0", log)
            path = recorder.trigger("torn_recovery")
            records = FlightRecorder.load(path)
            (section,) = [
                r for r in records if r.get("section") == "audit/shard0"
            ]
            assert section["data"][0]["op"] == "insert"
            assert section["data"][0]["trace"]  # audit -> trace link
            text = FlightRecorder.inspect(path)
            assert "patient_chart.insert committed" in text

    def test_dying_source_does_not_kill_dump(self, tmp_path):
        with obs.use() as hub:
            recorder = FlightRecorder(str(tmp_path))

            def boom():
                raise RuntimeError("stack is gone")

            recorder.add_source("sick", boom)
            path = recorder.trigger("failover")
            (section,) = [
                r
                for r in FlightRecorder.load(path)
                if r.get("section") == "sick"
            ]
            assert "RuntimeError" in section["data"]["error"]

    def test_bundle_is_valid_jsonl(self, tmp_path):
        with obs.use() as hub:
            recorder = FlightRecorder(str(tmp_path))
            path = recorder.trigger("failover")
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)
