"""Tests for the module-level observability hub and its accessors."""

import repro.obs as obs
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NOOP_TRACER


class TestDefaultState:
    def test_disabled_by_default(self):
        obs.disable()
        assert obs.tracer() is NOOP_TRACER
        assert obs.metrics() is NULL_REGISTRY
        assert not obs.active().tracer.enabled


class TestConfigure:
    def test_configure_installs_live_hub(self):
        hub = obs.configure()
        try:
            assert obs.active() is hub
            assert hub.tracer.enabled
            with obs.tracer().span("probe"):
                obs.metrics().counter("probes").inc()
            assert len(hub.tracer.roots()) == 1
            assert hub.metrics.counter("probes").value == 1.0
        finally:
            obs.disable()

    def test_disable_restores_noop(self):
        obs.configure()
        obs.disable()
        assert obs.tracer() is NOOP_TRACER


class TestUse:
    def test_use_scopes_and_restores(self):
        obs.disable()
        with obs.use() as hub:
            assert obs.active() is hub
            obs.metrics().counter("scoped").inc()
        assert obs.tracer() is NOOP_TRACER
        assert hub.metrics.counter("scoped").value == 1.0

    def test_use_restores_after_exception(self):
        obs.disable()
        try:
            with obs.use():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.tracer() is NOOP_TRACER

    def test_nested_use(self):
        with obs.use() as outer:
            with obs.use() as inner:
                assert obs.active() is inner
            assert obs.active() is outer
