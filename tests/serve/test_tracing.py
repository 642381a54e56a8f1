"""Trace propagation through the HTTP front end and across the
cluster: X-Request-Id echo, traceparent join, metrics formats, SLO
surface, end-to-end trace assembly, and the failover flight bundle."""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.obs.cluster import FlightRecorder, TraceAssembler
from repro.obs.context import TraceContext, parse_traceparent
from repro.replicate import ReplicationConfig
from repro.serve.http import MicroBatcher, PenguinServer
from repro.shard import ShardedPenguin, sharded_loader
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from tests.conftest import wait_until

OBJECT = "patient_chart"


def fresh_chart(pid, name="Traced Patient"):
    return {
        "patient_id": pid,
        "name": name,
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "tracing",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        ],
    }


def pid_on_shard(sharded, shard_id, start=90_000):
    pid = start
    while sharded.router.shard_of((pid,)) != shard_id:
        pid += 1
    return pid


def request(url, method="GET", payload=None, headers=None):
    """(status, parsed body, response headers); never raises on 4xx/5xx."""
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
    content = raw.decode("utf-8")
    try:
        parsed = json.loads(content)
    except ValueError:
        parsed = content
    return status, parsed, {k.lower(): v for k, v in got.items()}


@pytest.fixture(scope="module")
def cluster():
    """A replicated 2-shard deployment served for the whole module."""
    with obs.use() as hub:
        graph = hospital_schema()
        sharded = ShardedPenguin(
            graph,
            "PATIENT",
            num_shards=2,
            replication=ReplicationConfig(replicas=2),
        )
        populate_hospital(sharded_loader(sharded), HospitalConfig(patients=6))
        sharded.register_object(patient_chart_object(graph))
        sharded.materialize(OBJECT, "lazy")
        server = PenguinServer(sharded, port=0)
        handle = server.in_background()
        yield hub, sharded, handle.url
        handle.stop()
        sharded.close()


class TestRequestIdEcho:
    def test_client_id_echoed_on_200(self, cluster):
        _, _, url = cluster
        status, _, headers = request(
            f"{url}/health", headers={"X-Request-Id": "req-mine"}
        )
        assert status == 200
        assert headers["x-request-id"] == "req-mine"

    def test_generated_when_absent(self, cluster):
        _, _, url = cluster
        _, _, headers = request(f"{url}/health")
        assert headers["x-request-id"].startswith("req-")

    def test_echoed_on_404(self, cluster):
        _, _, url = cluster
        status, _, headers = request(
            f"{url}/objects/no_such_object/1",
            headers={"X-Request-Id": "req-404"},
        )
        assert status == 404
        assert headers["x-request-id"] == "req-404"

    def test_echoed_on_400(self, cluster):
        _, _, url = cluster
        status, body, headers = request(
            f"{url}/health",
            headers={"X-Request-Id": "req-400", "X-Deadline-Ms": "abc"},
        )
        assert status == 400
        assert "must be a number" in body["error"]
        assert headers["x-request-id"] == "req-400"

    def test_echoed_on_504_deadline(self, cluster):
        _, sharded, url = cluster
        pid = pid_on_shard(sharded, 0, start=95_000)
        status, body, headers = request(
            f"{url}/objects/{OBJECT}",
            method="POST",
            payload={"instance": fresh_chart(pid)},
            headers={"X-Request-Id": "req-504", "X-Deadline-Ms": "0.001"},
        )
        assert status == 504
        assert headers["x-request-id"] == "req-504"
        assert "deadline exceeded" in body["error"]


class TestTraceparent:
    def test_response_joins_client_trace(self, cluster):
        _, _, url = cluster
        parent = TraceContext("ab" * 16, "cd" * 8)
        _, _, headers = request(
            f"{url}/health",
            headers={"traceparent": f"00-{parent.trace_id}-{parent.span_id}-01"},
        )
        emitted = parse_traceparent(headers["traceparent"])
        assert emitted.trace_id == parent.trace_id
        # the server's own root span, not the client's, is the new parent
        assert emitted.span_id != parent.span_id

    def test_fresh_trace_when_absent(self, cluster):
        _, _, url = cluster
        _, _, first = request(f"{url}/health")
        _, _, second = request(f"{url}/health")
        a = parse_traceparent(first["traceparent"])
        b = parse_traceparent(second["traceparent"])
        assert a.trace_id != b.trace_id


class TestMetricsFormats:
    def test_json_format_and_content_type(self, cluster):
        _, _, url = cluster
        status, body, headers = request(f"{url}/metrics?format=json")
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        assert isinstance(body, dict)
        assert "counters" in body

    def test_component_filter(self, cluster):
        """There is no per-component registry to narrow to: the old
        ``?component=`` parameter is ignored and the one registry comes
        back whole."""
        _, sharded, url = cluster
        pid = next(
            p for p in range(100, 106) if sharded.router.shard_of((p,)) == 1
        )
        request(f"{url}/objects/{OBJECT}/{pid}")
        _, whole, _ = request(f"{url}/metrics?format=json")
        _, narrowed, _ = request(f"{url}/metrics?format=json&component=shard0")
        assert set(narrowed) == set(whole) == {"counters", "gauges", "histograms"}
        assert 'mode="engine",shard="1"' in "".join(narrowed["counters"])

    def test_shard_and_replica_labels_tell_stacks_apart(self, cluster):
        _, sharded, url = cluster
        # a read and a write on each shard, so every primary and every
        # replica stack has counted something
        for shard_id in (0, 1):
            pid = next(
                p for p in range(100, 106)
                if sharded.router.shard_of((p,)) == shard_id
            )
            request(f"{url}/objects/{OBJECT}/{pid}")
            status, _, _ = request(
                f"{url}/objects/{OBJECT}",
                method="POST",
                payload={"instance": fresh_chart(
                    pid_on_shard(sharded, shard_id, start=93_000)
                )},
            )
            assert status == 201
        status, text, headers = request(f"{url}/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "component=" not in text
        for shard_id in (0, 1):
            assert (
                f'serve_reads_total{{mode="engine",shard="{shard_id}"}}'
                in text
            )
            assert (
                f'serve_writes_total{{mode="applied",shard="{shard_id}"}}'
                in text
            )
            for replica in ("r1", "r2"):
                assert (
                    f'serve_writes_total{{mode="applied",replica="{replica}",'
                    f'shard="{shard_id}"}}' in text
                )

    def test_cluster_render_includes_replicas(self, cluster):
        _, sharded, url = cluster
        # a write must reach shard 0 before its replicas have metrics
        pid = pid_on_shard(sharded, 0, start=94_000)
        status, _, _ = request(
            f"{url}/objects/{OBJECT}",
            method="POST",
            payload={"instance": fresh_chart(pid)},
        )
        assert status == 201
        _, text, _ = request(f"{url}/metrics")
        assert 'replica="r1",shard="0"' in text

    def test_health_carries_slo(self, cluster):
        _, _, url = cluster
        status, body, _ = request(f"{url}/health")
        assert status == 200
        assert set(body["slo"]) == {"write_latency", "availability"}
        assert body["slo"]["availability"]["objective"] == 0.999


class TestBatchFoldContinuity:
    def test_folded_writes_share_one_batch_span(self):
        """Two submits folded into one micro-batch: the serve.batch
        span carries the first caller's trace and names the folded
        ones, so neither write goes dark."""

        class FakeSession:
            def _route_request(self, name, request):
                return 0

            def apply_plan_batch(self, name, requests):
                with obs.tracer().span("translate", object=name):
                    return {"applied": len(requests)}

        async def scenario(hub):
            batcher = MicroBatcher(FakeSession(), asyncio.get_running_loop())
            contexts = [TraceContext.new("req-f1"), TraceContext.new("req-f2")]

            async def submit(ctx):
                from repro.obs.context import attach

                with attach(ctx):
                    return await batcher.submit(OBJECT, object())

            await asyncio.gather(*(submit(c) for c in contexts))
            return contexts

        with obs.use() as hub:
            contexts = asyncio.run(scenario(hub))
            roots = [r for r in hub.tracer.take() if r.name == "serve.batch"]
        (batch,) = roots  # one fold, not two batches
        assert batch.trace_id == contexts[0].trace_id
        assert batch.attributes["requests"] == 2
        assert sorted(c.trace_id for c in contexts) == batch.attributes[
            "folded_traces"
        ]
        # the translator span nested under the batch — same fragment,
        # same trace: fold -> translate continuity
        assert [c.name for c in batch.children] == ["translate"]

    def test_http_write_reaches_translator_in_one_trace(self, cluster):
        hub, sharded, url = cluster
        pid = pid_on_shard(sharded, 0, start=96_000)
        status, _, headers = request(
            f"{url}/objects/{OBJECT}",
            method="POST",
            payload={"instance": fresh_chart(pid)},
            headers={"X-Request-Id": "req-continuity"},
        )
        assert status == 201
        assembler = TraceAssembler(hub.tracer)
        assembled = assembler.assemble(request_id="req-continuity")
        assert assembled is not None
        names = set(assembled.span_names())
        assert "http.request" in names
        assert "serve.batch" in names
        # every fragment in the assembly shares the response trace id
        trace_id = parse_traceparent(headers["traceparent"]).trace_id
        assert assembled.trace_id == trace_id


REQUIRED_LEGS = (
    ("http.request",),
    ("serve.batch",),
    ("translate", "explain"),
    ("shard.two_phase",),
    ("2pc.prepare",),
    ("2pc.apply",),
    ("replicate.ship",),
    ("replica.apply",),
)


class TestEndToEndAssembly:
    def test_rehoming_write_yields_one_complete_trace(self, cluster):
        """The acceptance path: one HTTP write whose key re-homes the
        chart across shards produces ONE assembled trace covering the
        front end, the micro-batch, both 2PC legs, the log ship, and
        the replica applies inside it — all under a single trace id."""
        hub, sharded, url = cluster
        source = pid_on_shard(sharded, 0, start=97_000)
        target = pid_on_shard(sharded, 1, start=98_000)
        status, _, _ = request(
            f"{url}/objects/{OBJECT}",
            method="POST",
            payload={"instance": fresh_chart(source)},
        )
        assert status == 201
        status, _, _ = request(
            f"{url}/objects/{OBJECT}/{source}",
            method="PUT",
            payload={"instance": fresh_chart(target, "Re-homed Patient")},
            headers={"X-Request-Id": "req-rehome"},
        )
        assert status == 200

        assembler = TraceAssembler(hub.tracer)

        def assembled_with_replicas():
            assembled = assembler.assemble(request_id="req-rehome")
            if assembled is None:
                return None
            if len(assembled.find_all("replica.apply")) < 2:
                return None
            return assembled

        wait_until(lambda: assembled_with_replicas() is not None)
        assembled = assembled_with_replicas()
        names = set(assembled.span_names())
        for aliases in REQUIRED_LEGS:
            assert any(name in names for name in aliases), aliases
        # both shards took a 2PC apply leg
        shards = sorted(
            str(span.attributes.get("shard"))
            for span in assembled.find_all("2pc.apply")
        )
        assert shards == ["0", "1"]
        # one trace id across every fragment — this is the whole point
        assert len({f.trace_id for f in assembled.fragments}) == 1
        # the write's audit records are reachable from the trace
        assert assembled.audit_asns()


class TestFailoverFlightBundle:
    def test_injected_failover_dumps_bundle(self, tmp_path):
        with obs.use():
            graph = hospital_schema()
            sharded = ShardedPenguin(
                graph,
                "PATIENT",
                num_shards=2,
                replication=ReplicationConfig(replicas=2),
            )
            populate_hospital(
                sharded_loader(sharded), HospitalConfig(patients=4)
            )
            sharded.register_object(patient_chart_object(graph))
            recorder = FlightRecorder(str(tmp_path))
            sharded.attach_flight_recorder(recorder)
            sharded.insert(OBJECT, fresh_chart(pid_on_shard(sharded, 0)))
            replica_set = sharded.shard(0).replica_set
            replica_set.primary.kill()
            for _ in range(replica_set.detector.MISS_THRESHOLD + 1):
                replica_set.probe()
            path = recorder.latest()
            assert path is not None
            assert "failover" in path
            text = FlightRecorder.inspect(path)
            assert "anomaly: failover" in text
            assert "promoted" in text
            sharded.close()
