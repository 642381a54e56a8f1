"""Unit tests for the metrics registry and its three instrument kinds."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from tests.conftest import counter_total, histogram_total_count


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0.0

    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7.0


class TestHistogram:
    def test_count_equals_observations(self):
        histogram = Histogram("h", buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 555.5

    def test_overflow_lands_in_inf_bucket(self):
        histogram = Histogram("h", buckets=(1,))
        histogram.observe(99)
        assert histogram.bucket_counts() == {"le=1": 0, "le=+Inf": 1}

    def test_bucket_bounds_are_sorted(self):
        histogram = Histogram("h", buckets=(100, 1, 10))
        assert histogram.buckets == (1.0, 10.0, 100.0)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_bucket_count_sum_equals_count(self):
        histogram = Histogram("h", buckets=DEFAULT_BUCKETS)
        for value in range(40):
            histogram.observe(value * 31 % 700)
        assert sum(histogram.bucket_counts().values()) == histogram.count


class TestRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc()
        assert registry.counter("hits").value == 2.0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("ops", op="insert").inc()
        registry.counter("ops", op="delete").inc(2)
        assert registry.counter("ops", op="insert").value == 1.0
        assert registry.counter("ops", op="delete").value == 2.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        assert registry.counter("x", b="2", a="1").value == 1.0

    def test_counter_total_sums_family(self):
        registry = MetricsRegistry()
        registry.counter("ops", op="insert").inc(3)
        registry.counter("ops", op="delete").inc(4)
        registry.counter("other").inc(100)
        assert counter_total(registry, "ops") == 7.0

    def test_histogram_total_count(self):
        registry = MetricsRegistry()
        registry.histogram("sizes", op="a").observe(1)
        registry.histogram("sizes", op="b").observe(2)
        assert histogram_total_count(registry, "sizes") == 2

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.gauge("state").set(1)
        registry.histogram("sizes").observe(3)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 1.0
        assert snap["gauges"]["state"] == 1.0
        assert snap["histograms"]["sizes"]["count"] == 1

    def test_render_text_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits", object="omega").inc()
        registry.gauge("breaker_state").set(1)
        registry.histogram("sizes").observe(3)
        text = registry.render_text()
        assert 'hits{object="omega"} 1' in text
        assert "# TYPE breaker_state gauge" in text
        assert "sizes_count 1" in text
        assert 'sizes_bucket{le="+Inf"}' in text

    def test_render_text_escapes_hostile_label_values(self):
        """Prometheus exposition: ``\\``, ``"``, and newlines in label
        values must be escaped, never emitted raw (a raw newline would
        split the sample line; a raw quote would end the value early).
        """
        registry = MetricsRegistry()
        hostile = 'a"b\\c\nd'
        registry.counter("hits", object=hostile).inc()
        registry.histogram("sizes", object=hostile).observe(3)
        text = registry.render_text()
        escaped = 'a\\"b\\\\c\\nd'
        assert f'hits{{object="{escaped}"}} 1' in text
        # Histogram lines re-assemble the label block around ``le``;
        # the escaping must survive that path too.
        assert f'sizes_bucket{{object="{escaped}",le="5"}} 1' in text
        assert f'sizes_count{{object="{escaped}"}} 1' in text
        # No raw newline leaked into any sample line.
        assert all(
            line.startswith(("# TYPE", "hits", "sizes"))
            for line in text.splitlines()
        )

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_thread_safety_of_counter(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.counter("contended").inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("contended").value == 8000.0


class TestNullRegistry:
    def test_absorbs_everything(self):
        NULL_REGISTRY.counter("x", op="y").inc()
        NULL_REGISTRY.gauge("x").set(5)
        NULL_REGISTRY.histogram("x").observe(3)
        assert NULL_REGISTRY.snapshot()["counters"] == {}
        assert NULL_REGISTRY.counter("x").value == 0.0
