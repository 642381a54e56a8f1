"""The asyncio HTTP front end: routes, batching, degraded metadata."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.relational.faults import SimulatedCrash
from repro.serve.http import MicroBatcher, PenguinServer, parse_key
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
        "name": f"HTTP Patient {pid}",
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": 9000,
                "reason": "http",
                "DIAGNOSIS": [],
                "PRESCRIPTION": [],
                "LAB_RESULT": [],
                "PHYSICIAN": [],
            }
        ],
    }


def request(url, method="GET", payload=None):
    """(status, parsed JSON body) via urllib; never raises on 4xx/5xx."""
    body = None
    headers = {}
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        url, data=body, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
    content = raw.decode("utf-8")
    try:
        return status, json.loads(content)
    except ValueError:
        return status, content


@pytest.fixture(scope="module")
def served():
    """One 4-shard deployment served for the whole module, metrics live."""
    with obs.use():
        graph = hospital_schema()
        sharded = ShardedPenguin(graph, "PATIENT", num_shards=4)
        populate_hospital(
            sharded_loader(sharded), HospitalConfig(patients=10)
        )
        sharded.register_object(patient_chart_object(graph))
        sharded.materialize(OBJECT, "lazy")
        server = PenguinServer(sharded, port=0)
        handle = server.in_background()
        yield sharded, handle.url
        handle.stop()


class TestKeyParsing:
    def test_ints_floats_strings(self):
        assert parse_key("4711") == (4711,)
        assert parse_key("4711,2") == (4711, 2)
        assert parse_key("CS345") == ("CS345",)
        assert parse_key("1.5") == (1.5,)


class TestRoutes:
    def test_health(self, served):
        _, url = served
        status, body = request(f"{url}/health")
        assert status == 200
        assert body["num_shards"] == 4
        assert body["degraded"] == []
        assert set(body["shards"]) == {"0", "1", "2", "3"}

    def test_metrics_exposition(self, served):
        _, url = served
        request(f"{url}/objects/{OBJECT}/100")  # generate a sample
        status, text = request(f"{url}/metrics")
        assert status == 200
        assert "serve_http_requests_total" in text

    def test_objects_index(self, served):
        _, url = served
        status, body = request(f"{url}/objects")
        assert status == 200
        assert body["objects"] == [OBJECT]
        assert "hash(4)" in body["topology"]

    def test_objects_index_surfaces_per_view_risk(self, served):
        _, url = served
        status, body = request(f"{url}/objects")
        assert status == 200
        assert set(body["risk"]) == {OBJECT}
        entry = body["risk"][OBJECT]
        assert entry["level"] in {"safe", "low", "medium", "high", "critical"}
        assert entry["findings"] >= 0

    def test_get_carries_serving_metadata(self, served):
        sharded, url = served
        status, body = request(f"{url}/objects/{OBJECT}/100")
        assert status == 200
        assert body["instance"]["patient_id"] == 100
        meta = body["meta"]
        assert meta["object"] == OBJECT
        assert meta["stale"] is False
        assert meta["shard"] == sharded.router.shard_of((100,))

    def test_get_missing_is_404(self, served):
        _, url = served
        status, body = request(f"{url}/objects/{OBJECT}/99999")
        assert status == 404
        assert "error" in body

    def test_unknown_object_is_404(self, served):
        _, url = served
        status, _ = request(f"{url}/objects/nonesuch/1")
        assert status == 404

    def test_query_merges_shards(self, served):
        sharded, url = served
        status, body = request(f"{url}/objects/{OBJECT}")
        assert status == 200
        assert body["count"] == len(sharded.query(OBJECT))
        keys = [inst["patient_id"] for inst in body["instances"]]
        assert keys == sorted(keys)
        assert body["meta"]["stale"] is False

    def test_instances_render_off_the_event_loop(self, served, monkeypatch):
        """Payload dictionaries are built in the executor call that did
        the read: a 2000-instance query rendered on the loop thread
        would stall every other connection."""
        import threading

        from repro.core.instance import Instance

        rendered_on = []
        to_dict = Instance.to_dict

        def recording(instance):
            rendered_on.append(threading.current_thread().name)
            return to_dict(instance)

        monkeypatch.setattr(Instance, "to_dict", recording)
        _, url = served
        assert request(f"{url}/objects/{OBJECT}/100")[0] == 200
        assert request(f"{url}/objects/{OBJECT}")[0] == 200
        assert len(rendered_on) > 1
        assert "penguin-serve" not in rendered_on

    def test_filtered_query(self, served):
        _, url = served
        status, body = request(
            f"{url}/objects/{OBJECT}?q=birth_year+%3E+0"
        )
        assert status == 200
        assert body["count"] >= 1

    def test_insert_get_delete_round_trip(self, served):
        sharded, url = served
        status, body = request(
            f"{url}/objects/{OBJECT}",
            method="POST",
            payload={"instance": fresh_chart(71_001)},
        )
        assert status == 201
        assert body["applied"] is True
        assert body["operations"] >= 2  # PATIENT + VISIT

        status, body = request(f"{url}/objects/{OBJECT}/71001")
        assert status == 200
        assert body["instance"]["name"] == "HTTP Patient 71001"

        status, body = request(
            f"{url}/objects/{OBJECT}/71001", method="DELETE"
        )
        assert status == 200
        status, _ = request(f"{url}/objects/{OBJECT}/71001")
        assert status == 404
        assert sharded.get(OBJECT, (71_001,)) is None

    def test_replace_via_put(self, served):
        sharded, url = served
        _, body = request(f"{url}/objects/{OBJECT}/101")
        chart = body["instance"]
        chart["name"] = "Renamed Over HTTP"
        status, body = request(
            f"{url}/objects/{OBJECT}/101",
            method="PUT",
            payload={"instance": chart},
        )
        assert status == 200
        assert sharded.get(OBJECT, (101,)).to_dict()["name"] == (
            "Renamed Over HTTP"
        )

    def test_bad_json_is_400(self, served, body=b"{not json"):
        _, url = served
        req = urllib.request.Request(
            f"{url}/objects/{OBJECT}",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())
        assert request(f"{url}/health")[0] == 200

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff\xfe",                       # not UTF-8
            b"[" * 100_000,                    # RecursionError in the decoder
            b'{"instance": ' + b'{"a": ' * 5_000 + b"1" + b"}" * 5_001,
        ],
        ids=["encoding", "deep-array", "deep-object"],
    )
    def test_undecodable_json_is_400_too(self, served, body):
        self.test_bad_json_is_400(served, body)

    def test_duplicate_insert_is_400(self, served):
        _, url = served
        status, body = request(
            f"{url}/objects/{OBJECT}",
            method="POST",
            payload={"instance": fresh_chart(100)},  # resident pid
        )
        assert status == 400
        assert "error" in body

    def test_malformed_instance_is_400_not_404(self, served):
        """A body the object's definition rejects is the client's error
        on a known object — not "unknown object"."""
        _, url = served
        chart = fresh_chart(71_002)
        chart["no_such_attribute"] = 1
        status, body = request(
            f"{url}/objects/{OBJECT}", method="POST",
            payload={"instance": chart},
        )
        assert status == 400
        assert "no_such_attribute" in body["error"]

    def test_wrong_method_is_405(self, served):
        _, url = served
        status, _ = request(
            f"{url}/objects/{OBJECT}", method="DELETE"
        )
        assert status == 405

    def test_unknown_route_is_404(self, served):
        _, url = served
        status, _ = request(f"{url}/nonesuch")
        assert status == 404


class TestStatusTable:
    """One class -> status table (``repro.errors.HTTP_STATUS``). Every
    exception class the library exports is named here, so a new one
    fails this test until someone decides what it answers."""

    EXPECTED = {
        400: (
            "RelationalError SchemaError DomainError UnknownRelationError "
            "UnknownAttributeError DuplicateKeyError NoSuchRowError "
            "StructuralError ConnectionError "
            "ViewObjectError PivotError ProjectionError QueryError "
            "QuerySyntaxError UpdateError LocalValidationError "
            "TranslationError UpdateRejectedError "
            "GlobalValidationError DialogError AnswerError StrategyError "
            "UnsafeTranslatorError"
        ),
        # The server's own logs, replication stream or data: never the
        # client's doing. ReproError itself is raised nowhere; a bare
        # one is unclassified.
        500: (
            "ReproError JournalError AuditError ReplicationError "
            "FencedWriteError ReplicaDivergenceError InstantiationError"
        ),
        # Clears by itself: sent with Retry-After.
        503: (
            "DegradedServiceError ReplicationQuorumError PrimaryDownError "
            "FailoverInProgressError TransientEngineError TransactionError"
        ),
    }

    def test_every_exported_error_class_has_a_decided_status(self):
        import repro.errors as errors
        from repro.serve.http import _classify

        exported = {
            value.__name__: value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
            and value.__module__ == errors.__name__
        }
        expected = {
            name: status
            for status, names in self.EXPECTED.items()
            for name in names.split()
        }
        assert set(expected) == set(exported)
        for name, cls in exported.items():
            # __new__: the constructors differ, the class is what is mapped.
            assert _classify(cls.__new__(cls)).status == expected[name], name

    def test_parsers_and_deadlines_keep_their_statuses(self):
        from repro.serve.http import _classify, _HttpError

        for exc in (KeyError("k"), ValueError("v"), TypeError("t")):
            assert _classify(exc).status == 400
        assert _classify(asyncio.TimeoutError()).status == 504
        assert _classify(_HttpError(405, "no")).status == 405
        assert _classify(RuntimeError("bug")).status == 500


class TestDegradedServing:
    def test_stale_reads_carry_shard_and_staleness(self):
        """A degraded shard serves cached instances marked stale; the
        HTTP surface exposes stale/staleness/shard uniformly."""
        graph = hospital_schema()
        sharded = ShardedPenguin(graph, "PATIENT", num_shards=2)
        populate_hospital(
            sharded_loader(sharded), HospitalConfig(patients=6)
        )
        sharded.register_object(patient_chart_object(graph))
        sharded.materialize(OBJECT, "lazy")
        sharded.query(OBJECT)  # warm every shard's cache

        pid = 100
        owner = sharded.router.shard_of((pid,))
        breaker = sharded.shard(owner).serving.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.degraded

        server = PenguinServer(sharded, port=0)
        handle = server.in_background()
        try:
            status, body = request(
                f"{handle.url}/objects/{OBJECT}/{pid}"
            )
            assert status == 200
            assert body["meta"]["stale"] is True
            assert body["meta"]["shard"] == owner
            assert body["meta"]["staleness"] is not None

            # Writes to the degraded shard are refused with 503.
            status, body = request(
                f"{handle.url}/objects/{OBJECT}/{pid}",
                method="DELETE",
            )
            assert status == 503

            # The health endpoint names the degraded shard.
            _, health = request(f"{handle.url}/health")
            assert health["degraded"] == [owner]
        finally:
            handle.stop()


class TestMicroBatcher:
    class FakeSession:
        def __init__(self, fail_on=None):
            self.calls = []
            self.fail_on = fail_on or set()

        def apply_plan_batch(self, name, requests):
            self.calls.append(list(requests))
            failing = [r for r in requests if r in self.fail_on]
            if failing:
                raise ValueError(f"bad request {failing[0]}")

            class Plan:
                operations = list(requests)

            return Plan()

    class HeldSession(FakeSession):
        """Holds its first batch until ``release`` is set, then lands it
        or, given ``raises``, raises that instead."""

        def __init__(self, raises=None):
            super().__init__()
            self.entered = threading.Event()
            self.release = threading.Event()
            self.raises = raises

        def apply_plan_batch(self, name, requests):
            if not self.entered.is_set():
                self.entered.set()
                assert self.release.wait(10), "the held batch was never released"
                if self.raises is not None:
                    raise self.raises
            return super().apply_plan_batch(name, requests)

    def run(self, coro):
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(coro)
        finally:
            loop.close()

    def test_concurrent_submissions_fold_into_one_batch(self):
        session = self.FakeSession()

        async def scenario():
            loop = asyncio.get_event_loop()
            batcher = MicroBatcher(session, loop)
            futures = [
                batcher.submit(OBJECT, f"req{i}") for i in range(5)
            ]
            results = await asyncio.gather(*futures)
            return batcher, results

        batcher, results = self.run(scenario())
        assert len(session.calls) == 1  # submitted in one tick: one batch
        assert len(session.calls[0]) == 5
        assert all(batched == 5 for _, batched in results)
        assert batcher.batches_flushed == 1
        assert batcher.requests_batched == 5

    def test_max_batch_flushes_early(self):
        session = self.FakeSession()

        async def scenario():
            loop = asyncio.get_event_loop()
            batcher = MicroBatcher(session, loop, max_batch=3)
            futures = [
                batcher.submit(OBJECT, f"req{i}") for i in range(3)
            ]
            await asyncio.gather(*futures)

        self.run(scenario())  # three fit one batch
        assert len(session.calls) == 1

    def test_lone_write_lands_without_a_timer(self):
        """Nothing waits on a clock: the loop refuses every timer and
        the write still reaches the session."""
        session = self.FakeSession()

        async def scenario():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("the batcher armed a timer")

            loop.call_later = loop.call_at = no_timer
            batcher = MicroBatcher(session, loop)
            return await batcher.submit(OBJECT, "solo")

        plan, batched = self.run(scenario())
        assert session.calls == [["solo"]]
        assert (plan.operations, batched) == (["solo"], 1)

    def test_writes_behind_a_held_batch_land_together_in_order(self):
        session = self.HeldSession()

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(session, loop)
            first = batcher.submit(OBJECT, "first")
            await loop.run_in_executor(None, session.entered.wait)
            behind = []
            for i in range(4):  # one per loop tick: no same-tick fold
                behind.append(batcher.submit(OBJECT, f"req{i}"))
                await asyncio.sleep(0)
            assert batcher.batches_flushed == 1  # "first" still in flight
            session.release.set()
            results = await asyncio.wait_for(asyncio.gather(first, *behind), 10)
            return batcher, results

        batcher, results = self.run(scenario())
        assert session.calls == [["first"], ["req0", "req1", "req2", "req3"]]
        assert [batched for _, batched in results] == [1, 4, 4, 4, 4]
        assert (batcher.batches_flushed, batcher.requests_batched) == (2, 5)

    def test_backlog_past_max_batch_splits_in_order(self):
        session = self.FakeSession()

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(session, loop, max_batch=3)
            await asyncio.gather(
                *(batcher.submit(OBJECT, f"req{i}") for i in range(7))
            )

        self.run(scenario())
        assert session.calls == [
            ["req0", "req1", "req2"], ["req3", "req4", "req5"], ["req6"],
        ]

    def test_a_crash_past_the_batch_strands_no_caller(self):
        """A BaseException out of the session (a simulated crash)
        cancels the in-flight and the queued futures instead of leaving
        their callers waiting, and the next write starts a new flight."""
        session = self.HeldSession(raises=SimulatedCrash("apply_plan_batch", 1))

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(session, loop)
            held = batcher.submit(OBJECT, "held")
            await loop.run_in_executor(None, session.entered.wait)
            queued = batcher.submit(OBJECT, "queued")
            session.release.set()
            await asyncio.wait_for(
                asyncio.gather(held, queued, return_exceptions=True), 10
            )
            assert held.cancelled() and queued.cancelled()
            return await asyncio.wait_for(batcher.submit(OBJECT, "after"), 10)

        self.run(scenario())
        assert session.calls == [["after"]]

    def test_drain_waits_for_the_flight_and_its_queue(self):
        session = self.HeldSession()

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(session, loop)
            futures = [batcher.submit(OBJECT, "first")]
            await loop.run_in_executor(None, session.entered.wait)
            futures += [batcher.submit(OBJECT, name) for name in ("a", "b")]
            drain = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.05)
            assert not drain.done()  # the first batch is still held
            assert not any(future.done() for future in futures)
            session.release.set()
            await asyncio.wait_for(drain, 10)
            assert all(future.done() for future in futures)

        self.run(scenario())
        assert session.calls == [["first"], ["a", "b"]]

    def test_objects_batch_independently(self):
        session = self.FakeSession()

        async def scenario():
            loop = asyncio.get_event_loop()
            batcher = MicroBatcher(session, loop)
            await asyncio.gather(
                batcher.submit("alpha", "a1"),
                batcher.submit("beta", "b1"),
            )

        self.run(scenario())
        assert sorted(map(len, session.calls)) == [1, 1]

    def test_one_bad_request_fails_alone(self):
        session = self.FakeSession(fail_on={"bad"})

        async def scenario():
            loop = asyncio.get_event_loop()
            batcher = MicroBatcher(session, loop)
            futures = [
                batcher.submit(OBJECT, req)
                for req in ("good1", "bad", "good2")
            ]
            return await asyncio.gather(*futures, return_exceptions=True)

        results = self.run(scenario())
        assert isinstance(results[1], ValueError)
        assert not isinstance(results[0], Exception)
        assert not isinstance(results[2], Exception)
        # One failed batch attempt + three individual retries.
        assert len(session.calls) == 4


class TestKeepAlive:
    def test_many_requests_on_one_connection(self, served):
        """The load generator's access pattern: sequential keep-alive
        requests on a single socket."""
        sharded, url = served
        host, port = url.rsplit("//", 1)[1].split(":")

        async def scenario():
            from repro.serve.load import http_request

            reader, writer = await asyncio.open_connection(
                host, int(port)
            )
            try:
                statuses = []
                for _ in range(5):
                    status, _ = await http_request(
                        reader, writer, "GET", f"/objects/{OBJECT}/100"
                    )
                    statuses.append(status)
                return statuses
            finally:
                writer.close()

        loop = asyncio.new_event_loop()
        try:
            statuses = loop.run_until_complete(scenario())
        finally:
            loop.close()
        assert statuses == [200] * 5


class TestUrlUnquote:
    """The strict percent decoder: RFC-conformant input round-trips,
    malformed escapes surface as 400, never 500."""

    @pytest.mark.parametrize(
        ("encoded", "decoded"),
        [
            ("plain", "plain"),
            ("a+b", "a b"),
            ("birth_year+%3E+0", "birth_year > 0"),
            ("%41%42c", "ABc"),
            ("100%25", "100%"),
            ("caf%C3%A9", "café"),          # two-byte UTF-8
            ("%E2%82%AC1", "€1"),           # three-byte UTF-8
            ("%F0%9F%90%A7", "\U0001f427"),      # four-byte (a penguin)
            ("", ""),
        ],
    )
    def test_valid_input_decodes(self, encoded, decoded):
        from repro.serve.http import _url_unquote

        assert _url_unquote(encoded) == decoded

    @pytest.mark.parametrize(
        "encoded",
        [
            "%",        # truncated: no digits
            "%4",       # truncated: one digit
            "abc%",     # truncated at end of string
            "%zz",      # not hex
            "%4g",      # second digit not hex
            "%+1",      # int(x, 16) would accept "+1"; we must not
            "% 1",      # likewise " 1"
            "%-1",
            "%E9",      # lone latin-1 byte: not valid UTF-8
            "%C3%28",   # malformed two-byte sequence
            "%F0%9F",   # truncated four-byte sequence
        ],
    )
    def test_malformed_input_raises_400(self, encoded):
        from repro.serve.http import _HttpError, _url_unquote

        with pytest.raises(_HttpError) as excinfo:
            _url_unquote(encoded)
        assert excinfo.value.status == 400

    def test_malformed_query_is_a_400_response(self, served, query="%4"):
        _, url = served
        status, body = request(f"{url}/objects/{OBJECT}?q={query}")
        assert status == 400
        assert "error" in body
        assert request(f"{url}/health")[0] == 200

    @pytest.mark.parametrize("opener", ["not%20", "%28"], ids=["not", "parens"])
    def test_a_query_nested_past_the_recursion_limit_is_a_400_too(
        self, served, opener
    ):
        """(a ``RecursionError`` in the query parser, a 500, on the parent)"""
        self.test_malformed_query_is_a_400_response(
            served, opener * 3_000 + "birth_year%20%3E%200"
        )

    def test_an_ordering_against_a_foreign_literal_is_a_400_too(self, served):
        """``birth_year < 'x'`` (drift bug 16: a 500 from a ``TypeError``
        on memory, every chart on sqlite)."""
        _, url = served
        status, body = request(
            f"{url}/objects/{OBJECT}?q=birth_year+%3C+%27x%27"
        )
        assert status == 400
        assert "cannot compare INTEGER attribute 'birth_year'" in body["error"]

    def test_an_ordering_across_attribute_domains_is_a_400_too(self, served):
        """``birth_year < name`` (a 400 carrying the ``TypeError`` text on
        memory, every chart on sqlite, until the planner refused it)."""
        _, url = served
        status, body = request(f"{url}/objects/{OBJECT}?q=birth_year+%3C+name")
        assert status == 400
        assert body["error"].endswith(
            "cannot compare INTEGER attribute 'birth_year' "
            "with TEXT attribute 'name'"
        )

    def test_invalid_utf8_query_is_a_400_response(self, served):
        _, url = served
        status, _ = request(f"{url}/objects/{OBJECT}?q=%E9")
        assert status == 400

    def test_plus_and_escapes_still_filter(self, served):
        _, url = served
        status, body = request(
            f"{url}/objects/{OBJECT}?q=birth_year+%3E+0"
        )
        assert status == 200
        assert len(body) > 0


class TestContentLength:
    """A malformed ``Content-Length`` is the client's error: 400 with a
    correlation id, then close — never a dead handler task and an empty
    reply (``int`` raised on ``abc``; ``readexactly(-5)`` on ``-5``)."""

    @staticmethod
    def raw_exchange(url, head):
        import socket

        host, port = url.rsplit("/", 1)[-1].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(head.encode("latin-1"))
            chunks = []
            while True:  # the server closes after answering
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("latin-1")

    @pytest.mark.parametrize(
        "value", ["abc", "1e3", "-5", "+5", "1_0", "0x10", "12 34", "\xb2"]
    )
    def test_malformed_length_is_a_400_and_close(self, served, value):
        _, url = served
        reply = self.raw_exchange(
            url,
            f"POST /objects/{OBJECT} HTTP/1.1\r\n"
            f"Content-Length: {value}\r\n\r\n",
        )
        head, _, body = reply.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.1 400 ")
        lines = head.split("\r\n")
        assert "Connection: close" in lines
        assert any(
            line.startswith("X-Request-Id: ") and line[14:] for line in lines
        )
        assert json.loads(body) == {"error": "malformed Content-Length"}
        # The server itself is unharmed.
        assert request(f"{url}/health")[0] == 200

    def test_client_request_id_is_echoed(self, served):
        _, url = served
        reply = self.raw_exchange(
            url,
            "GET /health HTTP/1.1\r\nX-Request-Id: mine-1\r\n"
            "Content-Length: nope\r\n\r\n",
        )
        assert reply.startswith("HTTP/1.1 400 ")
        assert "X-Request-Id: mine-1\r\n" in reply

    def test_a_head_over_the_stream_limit_still_gets_an_answer(
        self, served, caplog
    ):
        """``readuntil`` gives up at asyncio's 64 KiB limit; the handler
        used to die with it ("Unhandled exception in client_connected_cb")
        and the client saw a reset, no status line."""
        _, url = served
        with caplog.at_level("ERROR", logger="asyncio"):
            reply = self.raw_exchange(
                url, "GET /health HTTP/1.1\r\nX-Padding: " + "x" * 70_000 + "\r\n\r\n"
            )
            assert request(f"{url}/health")[0] == 200
        head, _, body = reply.partition("\r\n\r\n")
        assert head.startswith(("HTTP/1.1 431 ", "HTTP/1.1 400 "))
        assert "Connection: close" in head.split("\r\n")
        assert "error" in json.loads(body)
        assert "Unhandled exception" not in caplog.text

    @pytest.mark.parametrize("value", ["", "0", "00"])
    def test_empty_and_zero_mean_no_body(self, served, value):
        _, url = served
        reply = self.raw_exchange(
            url,
            f"GET /health HTTP/1.1\r\nContent-Length: {value}\r\n"
            "Connection: close\r\n\r\n",
        )
        assert reply.startswith("HTTP/1.1 200 ")


class TestMalformedInputFuzz:
    """ROADMAP: "no 500 from malformed input". 320 seeded malformed
    requests — mutated charts, wrong types, bad escapes, bad
    ``Content-Length`` / ``traceparent`` / deadline headers, unknown
    methods, nesting past every recursion limit, a head past the stream
    limit — each answered 4xx (or 503 / 504), and the server serves on."""

    @staticmethod
    def malformed(rng, number):
        """(request bytes, what was done to it)."""
        chart = fresh_chart(40_000 + number)
        target, method, headers = f"/objects/{OBJECT}", "POST", {}
        body = None
        kind = rng.choice((
            "drop-key", "wrong-type", "truncated", "bytes", "deep-body",
            "not-an-object", "escape", "query", "deep-query", "key",
            "length", "deadline", "method", "request-line", "big-head",
        ))
        if kind == "drop-key":
            victim = rng.choice((chart, chart["VISIT"][0]))
            del victim[rng.choice([k for k in victim if k.islower()])]
        elif kind == "wrong-type":
            where = rng.choice(("patient_id", "VISIT", "birth_year"))
            chart[where] = rng.choice(("x", [[]], {"a": 1}, [1, 2], 1e400, True))
            if where != "VISIT":
                chart["VISIT"] = rng.choice((7, "visits", [3], [None], {}))
        elif kind == "truncated":
            text = json.dumps({"instance": chart})
            body = text[: rng.randrange(1, len(text) - 1)].encode()
        elif kind == "bytes":
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            body = b"\xff" + body
        elif kind == "deep-body":
            body = rng.choice((b"[", b'{"instance":', b'{"a":[')) * 20_000
        elif kind == "not-an-object":
            body = rng.choice((b"null", b"[]", b'"chart"', b"12", b'{"instance": 3}'))
        elif kind == "escape":
            method = "GET"
            target += "?q=" + rng.choice(("%", "%zz", "%E9", "%C3%28", "a%4"))
        elif kind == "query":
            method = "GET"
            target += "?q=" + rng.choice((
                "((((", "name%20%3D%20%3D%201", "name%20%3D%20%27open",
                "order%20by", "count(%20", "limit%20-1", "%00",
            ))
        elif kind == "deep-query":
            method = "GET"
            target += "?q=" + rng.choice(("not%20", "%28")) * 4_000 + "x%20%3D%201"
        elif kind == "key":
            method = rng.choice(("PUT", "DELETE"))
            target += "/" + rng.choice(("%zz", "1,2,3", "nobody", "1e400", ",", "%00"))
            body = b"{not json" if method == "PUT" else None
        elif kind == "length":
            headers["Content-Length"] = rng.choice(("abc", "-1", "1e3", "99999999999"))
        elif kind == "deadline":
            headers["X-Deadline-Ms"] = rng.choice(("abc", "-5", "0", "nan", "1e-320"))
            headers["traceparent"] = rng.choice(("zz", "00-" + "g" * 32, "00-1-2-3", ""))
        elif kind == "method":
            method = rng.choice(("BREW", "get ", "PATCH", "G" * 300, "OPTIONS"))
        elif kind == "request-line":
            return rng.choice((b"GET\r\n\r\n", b"\r\n\r\n", b"GET / \r\n\r\n")), kind
        elif kind == "big-head":
            headers["X-Padding"] = "x" * 70_000
        if body is None and method in ("POST", "PUT"):
            body = json.dumps({"instance": chart}).encode()
        body = body or b""
        headers.setdefault("Content-Length", str(len(body)))
        headers["Connection"] = "close"
        head = f"{method} {target} HTTP/1.1\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        return head.encode("latin-1") + b"\r\n" + body, kind

    def test_every_malformed_request_is_answered_and_never_with_a_500(
        self, served, caplog
    ):
        import random
        import socket

        _, url = served
        host, port = url.rsplit("/", 1)[-1].split(":")
        rng = random.Random(20)
        answers = {}
        with caplog.at_level("ERROR", logger="asyncio"):
            for number in range(320):
                payload, kind = self.malformed(rng, number)
                with socket.create_connection((host, int(port)), timeout=10) as sock:
                    try:
                        sock.sendall(payload)
                    except OSError:
                        pass  # answered and closed before the tail was sent
                    reply = b""
                    while b"\r\n" not in reply:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        reply += chunk
                line = reply.split(b"\r\n")[0].decode("latin-1")
                assert line.startswith("HTTP/1.1 "), (kind, payload[:80], reply[:80])
                status = int(line.split()[1])
                answers.setdefault(kind, set()).add(status)
                assert 400 <= status < 500 or status in (503, 504), (
                    kind, payload[:200], line
                )
            assert request(f"{url}/health")[0] == 200
        assert len(answers) == 15, sorted(answers)
        assert "Unhandled exception" not in caplog.text
