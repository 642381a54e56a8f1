"""Overload protection: deadlines, admission gate, graceful drain."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.serve.http import PenguinServer, ServerHandle
from repro.shard import ShardedPenguin, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)

OBJECT = "patient_chart"


def fresh_chart(pid):
    return {
        "patient_id": pid,
        "name": f"Overload Patient {pid}",
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "overload",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        ],
    }


def request(url, method="GET", payload=None, headers=None):
    """(status, parsed JSON, headers) via urllib; never raises on 4xx/5xx."""
    body = None
    send = dict(headers or {})
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        send["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=body, method=method, headers=send)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            raw = response.read()
            status = response.status
            got = dict(response.headers)
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
        got = dict(error.headers)
    return status, json.loads(raw.decode("utf-8")), got


def build_sharded(patients=6, shards=2):
    graph = hospital_schema()
    sharded = ShardedPenguin(graph, "PATIENT", num_shards=shards)
    populate_hospital(sharded_loader(sharded), HospitalConfig(patients=patients))
    sharded.register_object(patient_chart_object(graph))
    return sharded


def hold_batches(session):
    """Make ``session.apply_plan_batch`` block until the returned
    ``gate`` is set, so a test controls when a write's batch lands;
    ``entered`` is set once a batch is waiting on it."""
    gate, entered = threading.Event(), threading.Event()
    apply_plan_batch = session.apply_plan_batch

    def held(name, requests, *args, **kwargs):
        entered.set()
        assert gate.wait(10), "the held batch was never released"
        return apply_plan_batch(name, requests, *args, **kwargs)

    session.apply_plan_batch = held
    return gate, entered


@pytest.fixture()
def deployment():
    with obs.use():
        sharded = build_sharded()
        yield sharded


class TestDeadlines:
    def test_malformed_deadline_header_is_400(self, deployment):
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        try:
            status, body, _ = request(
                f"{handle.url}/objects/{OBJECT}/100",
                headers={"X-Deadline-Ms": "soon"},
            )
            assert status == 400
            assert "X-Deadline-Ms" in body["error"]
            status, body, _ = request(
                f"{handle.url}/objects/{OBJECT}/100",
                headers={"X-Deadline-Ms": "-5"},
            )
            assert status == 400
            assert "positive" in body["error"]
        finally:
            handle.stop()

    def test_generous_deadline_serves_normally(self, deployment):
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        try:
            status, body, _ = request(
                f"{handle.url}/objects/{OBJECT}/100",
                headers={"X-Deadline-Ms": "5000"},
            )
            assert status == 200
            assert body["instance"]["patient_id"] == 100
        finally:
            handle.stop()

    def test_tiny_deadline_is_504(self, deployment):
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        try:
            status, body, _ = request(
                f"{handle.url}/objects/{OBJECT}/100",
                headers={"X-Deadline-Ms": "0.001"},
            )
            assert status == 504
            assert "deadline" in body["error"]
            assert server.deadlines_exceeded >= 1
        finally:
            handle.stop()

    def test_server_default_deadline_applies_without_header(self, deployment):
        server = PenguinServer(deployment, port=0, default_deadline_ms=0.001)
        handle = server.in_background()
        try:
            status, body, _ = request(f"{handle.url}/objects/{OBJECT}/100")
            assert status == 504
            # A client header overrides the tight server default.
            status, _, _ = request(
                f"{handle.url}/objects/{OBJECT}/100",
                headers={"X-Deadline-Ms": "5000"},
            )
            assert status == 200
        finally:
            handle.stop()

    def test_expired_write_is_rejected_before_translation(self, deployment):
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        try:
            status, body, _ = request(
                f"{handle.url}/objects/{OBJECT}",
                method="POST",
                payload={"instance": fresh_chart(77_001)},
                headers={"X-Deadline-Ms": "0.001"},
            )
            assert status == 504
            assert deployment.get(OBJECT, (77_001,)) is None
        finally:
            handle.stop()

    def test_committing_write_is_never_cancelled(self, deployment):
        """A 504 that fires while the batch is held mid-commit reports
        the truth — "may still apply" — and the write indeed lands."""
        gate, _ = hold_batches(deployment)
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        try:
            status, body, _ = request(
                f"{handle.url}/objects/{OBJECT}",
                method="POST",
                payload={"instance": fresh_chart(77_002)},
                headers={"X-Deadline-Ms": "60"},
            )
            assert status == 504
            assert "not cancelled" in body["error"]
            gate.set()
            deadline = time.time() + 5
            while deployment.get(OBJECT, (77_002,)) is None:
                assert time.time() < deadline, "shielded write never landed"
                time.sleep(0.02)
        finally:
            handle.stop()


class TestAdmissionGate:
    def test_requests_past_the_high_water_mark_are_shed(self, deployment):
        server = PenguinServer(deployment, port=0, max_in_flight=0)
        handle = server.in_background()
        try:
            status, body, headers = request(f"{handle.url}/objects/{OBJECT}/100")
            assert status == 503
            assert "capacity" in body["error"]
            assert headers.get("Retry-After") == "1"
            assert server.requests_shed >= 1
            # Raising the gate immediately restores service: shedding is
            # a per-request admission decision, not a latched state.
            server.max_in_flight = 64
            status, _, _ = request(f"{handle.url}/objects/{OBJECT}/100")
            assert status == 200
        finally:
            handle.stop()

    def test_shed_metric_is_exported(self, deployment):
        server = PenguinServer(deployment, port=0, max_in_flight=0)
        handle = server.in_background()
        try:
            request(f"{handle.url}/objects/{OBJECT}/100")
            server.max_in_flight = 64
            status, text, _ = (None, None, None)
            req = urllib.request.Request(f"{handle.url}/metrics")
            with urllib.request.urlopen(req, timeout=10) as response:
                text = response.read().decode("utf-8")
            assert "serve_shed_total" in text
        finally:
            handle.stop()


class TestGracefulDrain:
    def test_stop_waits_for_in_flight_writes(self, deployment):
        """A write held mid-batch when stop() begins still gets its 201
        — drain finishes in-flight work and flushes the batcher before
        closing connections."""
        gate, entered = hold_batches(deployment)
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        outcome = {}

        def client():
            outcome["result"] = request(
                f"{handle.url}/objects/{OBJECT}",
                method="POST",
                payload={"instance": fresh_chart(77_003)},
            )

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(10), "the write never reached the batch"
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        deadline = time.time() + 5
        while not server._draining:
            assert time.time() < deadline, "stop() never began draining"
            time.sleep(0.01)
        gate.set()  # the held batch lands only after stop() began
        stopper.join(timeout=10)
        thread.join(timeout=10)
        assert not stopper.is_alive() and not thread.is_alive()
        status, body, _ = outcome["result"]
        assert status == 201
        assert body["applied"] is True
        assert deployment.get(OBJECT, (77_003,)) is not None
        assert not server.running

    def test_stop_is_idempotent(self, deployment):
        server = PenguinServer(deployment, port=0)
        handle = server.in_background()
        handle.stop()
        handle.stop()  # second stop is a no-op
        assert not server.running


class TestServerHandleStartup:
    def test_wedged_startup_raises_after_timeout(self, deployment):
        server = PenguinServer(deployment, port=0)

        async def hang():
            import asyncio

            await asyncio.sleep(3600)

        server.start = hang  # type: ignore[method-assign]
        with pytest.raises(RuntimeError, match="failed to start within"):
            ServerHandle(server).start(timeout=0.2)

    def test_startup_error_is_reported(self, deployment):
        first = PenguinServer(deployment, port=0)
        handle = first.in_background()
        try:
            # Binding a second server to the same port fails inside the
            # loop thread; start() surfaces the underlying error.
            second = PenguinServer(deployment, port=first.port)
            with pytest.raises(RuntimeError, match="failed to start"):
                ServerHandle(second).start(timeout=5)
        finally:
            handle.stop()
