"""An asyncio HTTP/JSON front end over a (sharded) Penguin session.

:class:`PenguinServer` binds ``asyncio.start_server`` to a small
HTTP/1.1 surface — health, metrics, object queries and gets, and the
three view-object write verbs — and serves them from a
:class:`~repro.shard.sharded.ShardedPenguin` or a single
:class:`~repro.serve.concurrent.ConcurrentPenguin`. The session's
translation pipeline is synchronous by design (the paper's algorithms
are CPU-bound tree walks), so the event loop never runs it inline:
every session call is pushed to the default executor and the loop
stays free to accept and parse connections.

Writes additionally pass through a :class:`MicroBatcher`, which keeps
one batch per view object in flight: writes that arrive while it lands
queue behind it and land together as the next batch — one
``apply_plan_batch`` call, one translation pass, one plan, one journal
entry per owner shard — which is where the serving layer earns back
the per-request overhead under contention on a hot object. No timer
holds a write: a lone one goes straight through. A failed batch falls
back to applying its requests individually so one bad request rejects
alone instead of poisoning its whole batch.

Read responses carry the :class:`~repro.serve.concurrent.ServedRead`
metadata (``stale``, ``shard``, ``staleness``), so a DEGRADED-mode
answer is visibly marked at the HTTP surface rather than passed off
as fresh. Error mapping: unknown objects and paths are 404, deadline
expiries 504, and every library error answers what the one table in
:mod:`repro.errors` says (rejections 400, DEGRADED refusals and engine
faults 503 with a ``Retry-After`` hint, log and replication faults
500); anything else is 500.

Overload protection is explicit. Each request runs under a
**deadline** — client-supplied via ``X-Deadline-Ms`` or the server's
``default_deadline_ms`` — with partial-work safety: a write whose
budget is spent is rejected *before* translation (504, nothing
applied), and one that already entered the batcher is never cancelled
mid-commit (the 504 says the write may still apply). An **admission
gate** sheds load past ``max_in_flight`` concurrent requests with a
503 + ``Retry-After`` before any session work happens. ``stop()``
drains gracefully: the listener closes first, in-flight requests run
to completion and get their responses, the batcher flushes, and only
then do connections close.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.obs.cluster import SloTarget, SloTracker
from repro.obs.context import (
    TraceContext,
    attach,
    current_context,
    format_traceparent,
    new_request_id,
    new_trace_id,
    parse_traceparent,
)
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
    UpdateRequest,
)
from repro.errors import http_status
from repro.serve.concurrent import ServedRead

__all__ = ["PenguinServer"]

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_BODY_BYTES = 1 << 20


def parse_key(text: str) -> Tuple[Any, ...]:
    """An object key from its URL form: comma-separated, ints coerced.

    ``/objects/patient_chart/4711`` addresses key ``(4711,)`` — each
    segment is tried as an int, then a float, and kept as a string
    otherwise, matching how the workloads type their key attributes.
    """
    parts = []
    for raw in text.split(","):
        value: Any = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        parts.append(value)
    return tuple(parts)


class _HttpError(Exception):
    """An error with a status code, raised by handlers, rendered as JSON."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _classify(exc: BaseException) -> _HttpError:
    if isinstance(exc, _HttpError):
        return exc
    if isinstance(exc, asyncio.TimeoutError):
        return _HttpError(504, "deadline exceeded")
    status = http_status(exc)
    # A server fault names its class; a refusal's message speaks for itself.
    return _HttpError(
        status, f"{type(exc).__name__}: {exc}" if status == 500 else str(exc)
    )


class _Deadline:
    """A per-request time budget on the loop's monotonic clock."""

    __slots__ = ("loop", "at")

    def __init__(self, loop: asyncio.AbstractEventLoop, seconds: float) -> None:
        self.loop = loop
        self.at = loop.time() + seconds

    @property
    def remaining(self) -> float:
        return self.at - self.loop.time()

    @property
    def expired(self) -> bool:
        return self.remaining <= 0.0


#: A queued write: the request, the future its caller awaits, and the
#: caller's trace context.
_Queued = Tuple[UpdateRequest, asyncio.Future, Optional[TraceContext]]


class MicroBatcher:
    """Fold concurrent writes per view object into one batch.

    Callers :meth:`submit` an :class:`UpdateRequest` and await the
    returned future. At most one batch per object is in flight. The
    first request for an idle object starts its flight on the next loop
    step (``loop.create_task`` schedules it with ``call_soon``), so
    requests submitted in the same tick fold; requests that arrive
    while a batch is landing queue behind it and flush, in order and at
    most ``max_batch`` at a time, the moment it lands. There is no
    timer: a lone write waits for nothing, and under load a batch is
    whatever queued during the last one (group commit without a timer).

    Batch-level failure falls back to per-request application: each
    request is retried alone and only the genuinely bad ones get their
    future rejected. The common failure (one invalid chart among ten
    inserts) therefore costs one extra round instead of ten rejections.
    """

    def __init__(
        self,
        session: Any,
        loop: asyncio.AbstractEventLoop,
        max_batch: int = 32,
    ) -> None:
        self.session = session
        self.loop = loop
        self.max_batch = max_batch
        self._queues: Dict[str, List[_Queued]] = {}
        self._flights: Dict[str, asyncio.Task] = {}
        self.batches_flushed = 0
        self.requests_batched = 0

    def submit(self, name: str, request: UpdateRequest) -> "asyncio.Future":
        future: asyncio.Future = self.loop.create_future()
        queue = self._queues.get(name)
        if queue is None:
            queue = self._queues[name] = []
            self._flights[name] = self.loop.create_task(self._fly(name, queue))
        # Capture the submitter's trace context: the executor thread
        # that applies the batch starts with an empty contextvars
        # context, so the handoff must be explicit.
        queue.append((request, future, current_context()))
        return future

    async def _fly(self, name: str, queue: List[_Queued]) -> None:
        """Land the object's queue one batch at a time until it is empty."""
        batch: List[_Queued] = []
        try:
            while queue:
                batch = queue[: self.max_batch]
                del queue[: self.max_batch]
                self.batches_flushed += 1
                self.requests_batched += len(batch)
                await self._apply(name, batch)
        finally:
            del self._queues[name], self._flights[name]
            # Only an escape past _apply (a BaseException such as a
            # simulated crash, or cancellation) leaves a future
            # unresolved: cancel it rather than let its caller wait on.
            for _, future, _ in batch + queue:
                future.cancel()

    async def _apply(self, name: str, batch: List[_Queued]) -> None:
        requests = [request for request, _, _ in batch]
        contexts = [ctx for _, _, ctx in batch if ctx is not None]
        ctx = contexts[0] if contexts else None
        folded = sorted({c.trace_id for c in contexts})

        def apply_batch() -> Any:
            # The batch fragment joins the first submitter's trace;
            # requests folded in from other traces are named on the
            # span so their timelines can point at this fragment too.
            with attach(ctx):
                with obs.tracer().span(
                    "serve.batch", object=name, requests=len(requests)
                ) as span:
                    if ctx is not None and ctx.request_id:
                        span.set(request_id=ctx.request_id)
                    if len(folded) > 1:
                        span.set(folded_traces=folded)
                    return self.session.apply_plan_batch(name, requests)

        try:
            plan = await self.loop.run_in_executor(None, apply_batch)
        except Exception as exc:
            if len(batch) == 1:
                future = batch[0][1]
                if not future.done():
                    future.set_exception(exc)
                return
            # One bad request rejected the whole batch: retry each
            # alone so the good ones still land.
            for queued in batch:
                await self._apply(name, [queued])
            return
        for _, future, _ in batch:
            if not future.done():
                future.set_result((plan, len(batch)))

    async def drain(self) -> None:
        """Wait until every queued write has landed."""
        while self._flights:
            await asyncio.gather(
                *self._flights.values(), return_exceptions=True
            )


class ServerHandle:
    """A running server on its own thread: ``.port``, ``.stop()``.

    Tests and the CLI smoke mode use this to serve a session in the
    background of a synchronous process; ``stop()`` is idempotent and
    joins the loop thread.
    """

    def __init__(self, server: "PenguinServer") -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stopped = False
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self, timeout: float = 10.0) -> "ServerHandle":
        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
                self._started.set()
                loop.run_forever()
                loop.run_until_complete(self.server.stop())
            except BaseException as exc:  # noqa: BLE001 - reported by start()
                self._startup_error = exc
            finally:
                self._started.set()  # unblock start() on startup failure
                for task in asyncio.all_tasks(loop):
                    task.cancel()
                try:
                    loop.run_until_complete(asyncio.sleep(0))
                except BaseException:  # pragma: no cover - best-effort sweep
                    pass
                loop.close()

        self._thread = threading.Thread(
            target=run, name="penguin-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            # The loop is wedged inside server.start(): stopping it makes
            # run_until_complete abandon the startup and unwind the thread.
            if self._loop is not None:
                self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=1.0)
            raise RuntimeError(
                f"server failed to start within {timeout:g}s"
            )
        if not self.server.running:
            detail = (
                f": {self._startup_error}" if self._startup_error else
                "; see logs"
            )
            raise RuntimeError(f"server failed to start{detail}")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped or self._loop is None:
            return
        self._stopped = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)


class PenguinServer:
    """The HTTP surface. Routes:

    ========  ==============================  =================================
    method    path                            meaning
    ========  ==============================  =================================
    GET       /health                         session + breaker health JSON
    GET       /metrics                        Prometheus text exposition
    GET       /objects                        registered view objects
    GET       /objects/<name>                 query (``?q=`` object query)
    GET       /objects/<name>/<key>           one instance by object key
    POST      /objects/<name>                 insert ``{"instance": {...}}``
    PUT       /objects/<name>/<key>           replace with ``{"instance": ...}``
    DELETE    /objects/<name>/<key>           delete by object key
    ========  ==============================  =================================

    ``session`` is a :class:`~repro.penguin.ViewObjectSession` that
    also serves reads with their metadata (``get_served`` /
    ``query_served``) and reports ``health()`` — a
    :class:`~repro.shard.sharded.ShardedPenguin` or a single
    :class:`~repro.serve.concurrent.ConcurrentPenguin`.
    """

    def __init__(
        self,
        session: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        default_deadline_ms: Optional[float] = None,
        max_in_flight: int = 64,
        slo_targets: Optional[List[SloTarget]] = None,
    ) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.max_batch = max_batch
        #: Per-request budget when the client sends no ``X-Deadline-Ms``;
        #: None serves without a deadline, matching the old behavior.
        self.default_deadline_ms = default_deadline_ms
        #: Admission high-water mark: requests past it are shed with 503.
        self.max_in_flight = max_in_flight
        if slo_targets is None:
            slo_targets = [
                SloTarget.latency(
                    "write_latency",
                    "serve_write_ms",
                    threshold_ms=250.0,
                    objective=0.95,
                    description="p95 of write requests under 250ms",
                ),
                SloTarget.availability(
                    "availability",
                    "serve_http_requests_total",
                    objective=0.999,
                    description="non-5xx fraction of HTTP responses",
                ),
            ]
        #: Burn-rate tracker sampled on every ``/health`` poll.
        self.slo: Optional[SloTracker] = (
            SloTracker(slo_targets) if slo_targets else None
        )
        self.batcher: Optional[MicroBatcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.requests_served = 0
        self.requests_shed = 0
        self.deadlines_exceeded = 0
        self._draining = False
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._writers: set = set()

    @property
    def running(self) -> bool:
        return self._server is not None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "PenguinServer":
        loop = asyncio.get_running_loop()
        self.batcher = MicroBatcher(self.session, loop, self.max_batch)
        self._draining = False
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful drain, in order: stop accepting new connections,
        let every in-flight request finish and send its response, flush
        whatever the :class:`MicroBatcher` still holds, and only then
        close the remaining (idle) connections."""
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        if self._idle is not None:
            await self._idle.wait()
        if self.batcher is not None:
            await self.batcher.drain()
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    def in_background(self) -> ServerHandle:
        """Serve on a dedicated thread; returns the started handle."""
        return ServerHandle(self).start()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except asyncio.LimitOverrunError:
                    # A head past the stream's limit cannot be framed,
                    # but the client still gets an answer.
                    await self._respond(
                        writer, 431, {"error": "request head too large"},
                        close=True, request_id=new_request_id(),
                    )
                    break
                request_line, headers = self._parse_head(head)
                if request_line is None:
                    # Even an unparseable request gets a correlation id
                    # so the client's error report can name something.
                    await self._respond(
                        writer, 400, {"error": "malformed request"},
                        close=True, request_id=new_request_id(),
                    )
                    break
                method, target = request_line
                ctx = self._trace_context(headers)
                request_id = ctx.request_id
                length = _content_length(headers)
                if length is None or length > MAX_BODY_BYTES:
                    # Without a usable length the rest of the stream
                    # cannot be framed: answer and close.
                    error = (
                        "malformed Content-Length"
                        if length is None
                        else "body too large"
                    )
                    await self._respond(
                        writer, 400, {"error": error},
                        close=True, request_id=request_id, trace=ctx,
                    )
                    break
                try:
                    body = await reader.readexactly(length) if length else b""
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # the client hung up mid-body
                keep_alive = headers.get("connection", "").lower() != "close"
                if self._draining:
                    # Requests received after stop() began are refused;
                    # the ones already dispatched run to completion.
                    await self._respond(
                        writer, 503, {"error": "server is draining"},
                        close=True, request_id=request_id, trace=ctx,
                    )
                    break
                if self._active >= self.max_in_flight:
                    self.requests_shed += 1
                    obs.metrics().counter("serve_shed_total").inc()
                    await self._respond(
                        writer, 503,
                        {"error": "server at capacity; retry later"},
                        close=not keep_alive,
                        request_id=request_id, trace=ctx,
                    )
                    if not keep_alive:
                        break
                    continue
                self._active += 1
                if self._idle is not None:
                    self._idle.clear()
                try:
                    started = time.perf_counter()
                    with attach(ctx):
                        with obs.tracer().span(
                            "http.request",
                            method=method,
                            path=target.partition("?")[0],
                            request_id=request_id,
                        ) as span:
                            status, payload, content_type = (
                                await self._dispatch(
                                    method, target, body, headers
                                )
                            )
                            span.set(status=status)
                    if method in ("POST", "PUT", "DELETE"):
                        obs.metrics().histogram("serve_write_ms").observe(
                            (time.perf_counter() - started) * 1000
                        )
                    self.requests_served += 1
                    if status == 504:
                        self.deadlines_exceeded += 1
                    obs.metrics().counter(
                        "serve_http_requests_total",
                        method=method,
                        status=str(status),
                    ).inc()
                    await self._respond(
                        writer, status, payload,
                        content_type=content_type, close=not keep_alive,
                        request_id=request_id,
                        trace=TraceContext(
                            ctx.trace_id, span.span_id or "", ctx.baggage
                        ),
                    )
                finally:
                    # The response is already on the wire: a concurrent
                    # drain waiting on _idle never drops this request.
                    self._active -= 1
                    if self._active == 0 and self._idle is not None:
                        self._idle.set()
                if not keep_alive:
                    break
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    def _trace_context(headers: Dict[str, str]) -> TraceContext:
        """The request's trace context: joined from a ``traceparent``
        header when the client sent a valid one, fresh otherwise. The
        ``X-Request-Id`` (client-sent or generated) rides in baggage."""
        request_id = headers.get("x-request-id") or new_request_id()
        parent = parse_traceparent(headers.get("traceparent"))
        if parent is not None:
            return TraceContext(
                parent.trace_id, parent.span_id, {"request_id": request_id}
            )
        return TraceContext(new_trace_id(), "", {"request_id": request_id})

    @staticmethod
    def _parse_head(
        head: bytes,
    ) -> Tuple[Optional[Tuple[str, str]], Dict[str, str]]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            return None, {}
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None, {}
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line or ":" not in line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return (method.upper(), target), headers

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str = "application/json",
        close: bool = False,
        request_id: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> None:
        if content_type == "application/json":
            body = (json.dumps(payload) + "\n").encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}; charset=utf-8",
            f"Content-Length: {len(body)}",
            "Connection: " + ("close" if close else "keep-alive"),
        ]
        if request_id:
            headers.append(f"X-Request-Id: {request_id}")
        if trace is not None:
            headers.append(f"Traceparent: {format_traceparent(trace)}")
        if status == 503:
            headers.append("Retry-After: 1")
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, str]:
        path, _, query_string = target.partition("?")
        segments = [s for s in path.split("/") if s]
        try:
            deadline = self._request_deadline(headers or {})
            if path == "/health" and method == "GET":
                return (
                    200,
                    await self._run(self._collect_health, deadline),
                    "application/json",
                )
            if path == "/metrics" and method == "GET":
                if self._query_params(query_string).get("format") == "json":
                    snapshot = await self._run(
                        self.session.metrics_snapshot, deadline
                    )
                    return 200, snapshot, "application/json"
                text = await self._run(self.session.metrics_text, deadline)
                return 200, text, "text/plain; version=0.0.4"
            if path == "/objects" and method == "GET":
                return 200, await self._objects_index(), "application/json"
            if segments[:1] == ["objects"] and len(segments) == 2:
                name = self._known(segments[1])
                if method == "GET":
                    return (
                        200,
                        await self._query(name, query_string, deadline),
                        "application/json",
                    )
                if method == "POST":
                    return (
                        201,
                        await self._insert(name, body, deadline),
                        "application/json",
                    )
                raise _HttpError(405, f"{method} not allowed here")
            if segments[:1] == ["objects"] and len(segments) == 3:
                name, key = self._known(segments[1]), parse_key(segments[2])
                if method == "GET":
                    return (
                        200,
                        await self._get(name, key, deadline),
                        "application/json",
                    )
                if method == "PUT":
                    return (
                        200,
                        await self._replace(name, key, body, deadline),
                        "application/json",
                    )
                if method == "DELETE":
                    return (
                        200,
                        await self._delete(name, key, deadline),
                        "application/json",
                    )
                raise _HttpError(405, f"{method} not allowed here")
            raise _HttpError(404, f"no route for {method} {path}")
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            error = _classify(exc)
            return error.status, {"error": str(error)}, "application/json"

    def _collect_health(self) -> Dict[str, Any]:
        payload = self.session.health()
        if self.slo is not None:
            payload["slo"] = self.slo.sample()
        return payload

    @staticmethod
    def _query_params(query_string: str) -> Dict[str, str]:
        params: Dict[str, str] = {}
        if not query_string:
            return params
        for pair in query_string.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = _url_unquote(value)
        return params

    def _request_deadline(
        self, headers: Dict[str, str]
    ) -> Optional[_Deadline]:
        raw = headers.get("x-deadline-ms")
        if raw is None:
            millis = self.default_deadline_ms
        else:
            try:
                millis = float(raw)
            except ValueError:
                raise _HttpError(
                    400, f"X-Deadline-Ms must be a number, got {raw!r}"
                ) from None
            if millis <= 0:
                raise _HttpError(
                    400, f"X-Deadline-Ms must be positive, got {raw!r}"
                )
        if millis is None:
            return None
        return _Deadline(asyncio.get_running_loop(), millis / 1000.0)

    async def _run(
        self, fn: Callable[[], Any], deadline: Optional[_Deadline] = None
    ) -> Any:
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, fn)
        if deadline is None:
            return await future
        # Reads (and pre-translation work) are safe to abandon: the
        # executor call has no session side effects worth keeping.
        return await asyncio.wait_for(
            future, timeout=max(deadline.remaining, 0.0)
        )

    async def _objects_index(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"objects": list(self.session.object_names)}
        topology = self.session.describe()
        if topology is not None:
            payload["topology"] = topology
        payload["risk"] = await self._run(self.session.risk_summary)
        return payload

    def _known(self, name: str) -> str:
        """``name`` if it is a registered view object; 404 like any
        other unknown path otherwise."""
        if name not in self.session.object_names:
            raise _HttpError(404, f"unknown view object: {name!r}")
        return name

    # -- reads ---------------------------------------------------------------

    async def _query(
        self,
        name: str,
        query_string: str,
        deadline: Optional[_Deadline] = None,
    ) -> Dict[str, Any]:
        text = self._query_params(query_string).get("q") or None

        def read() -> Dict[str, Any]:
            # Rendered in the same executor call as the read: a large
            # result must not hold the event loop (and every other
            # connection) while it is turned into dictionaries.
            served: ServedRead = self.session.query_served(name, text)
            return {
                "instances": [i.to_dict() for i in served.value],
                "count": len(served.value),
                "meta": served.meta(),
            }

        return await self._run(read, deadline)

    async def _get(
        self,
        name: str,
        key: Tuple[Any, ...],
        deadline: Optional[_Deadline] = None,
    ) -> Dict[str, Any]:

        def read() -> Optional[Dict[str, Any]]:
            served: ServedRead = self.session.get_served(name, key)
            if served.value is None:
                return None
            return {"instance": served.value.to_dict(), "meta": served.meta()}

        payload = await self._run(read, deadline)
        if payload is None:
            raise _HttpError(404, f"no instance {key!r} of {name!r}")
        return payload

    # -- writes (batched) ----------------------------------------------------

    def _instance_body(self, body: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError, RecursionError):
            raise _HttpError(400, "body is not valid JSON")
        if not isinstance(payload, dict) or "instance" not in payload:
            raise _HttpError(400, 'body must be {"instance": {...}}')
        instance = payload["instance"]
        if not isinstance(instance, dict):
            raise _HttpError(400, '"instance" must be an object')
        return instance

    async def _submit(
        self,
        name: str,
        request: UpdateRequest,
        deadline: Optional[_Deadline] = None,
    ) -> Dict[str, Any]:
        assert self.batcher is not None, "server not started"
        if deadline is not None and deadline.expired:
            # Partial-work safety, half one: a spent budget rejects the
            # write before translation ever runs — nothing was applied.
            raise _HttpError(
                504, "deadline exceeded before translation; nothing applied"
            )
        future = self.batcher.submit(name, request)
        if deadline is None:
            plan, batched = await future
        else:
            try:
                # Half two: once submitted, the write is shielded — a
                # deadline expiry reports 504 but never cancels a batch
                # mid-commit, so the store cannot be left torn.
                plan, batched = await asyncio.wait_for(
                    asyncio.shield(future),
                    timeout=max(deadline.remaining, 0.0),
                )
            except asyncio.TimeoutError:
                future.add_done_callback(_consume_result)
                raise _HttpError(
                    504,
                    "deadline exceeded while committing; the write was "
                    "not cancelled and may still apply",
                ) from None
        return {
            "applied": True,
            "operations": len(plan.operations),
            "batched_with": batched - 1,
        }

    async def _insert(
        self, name: str, body: bytes, deadline: Optional[_Deadline] = None
    ) -> Dict[str, Any]:
        mapping = self._instance_body(body)
        instance = await self._run(lambda: self.session.coerce(name, mapping), deadline)
        return await self._submit(name, CompleteInsertion(instance), deadline)

    async def _replace(
        self,
        name: str,
        key: Tuple[Any, ...],
        body: bytes,
        deadline: Optional[_Deadline] = None,
    ) -> Dict[str, Any]:
        mapping = self._instance_body(body)
        new = await self._run(lambda: self.session.coerce(name, mapping), deadline)
        return await self._submit(name, Replacement(key, new), deadline)

    async def _delete(
        self,
        name: str,
        key: Tuple[Any, ...],
        deadline: Optional[_Deadline] = None,
    ) -> Dict[str, Any]:
        return await self._submit(name, CompleteDeletion(key), deadline)


def _consume_result(future: "asyncio.Future") -> None:
    """Retrieve an abandoned write future's outcome (silences warnings)."""
    if not future.cancelled():
        future.exception()


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    """The request's body length; ``None`` when the header is malformed.

    Only plain decimal digits count (``int`` would also take ``-5``,
    ``+5`` or ``1_0``, and ``readexactly`` rejects a negative length
    with ``ValueError``); an absent or empty header means no body.
    """
    raw = headers.get("content-length", "")
    if not raw:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        return None
    return int(raw)


_HEX = set("0123456789abcdefABCDEF")


def _url_unquote(text: str) -> str:
    """Strict %XX + '+'-as-space decoding.

    A ``%`` must be followed by exactly two hex digits — a truncated
    escape (``%``, ``%4``) or non-hex digits (``%zz``, ``%+1``; note
    ``int(_, 16)`` would happily accept signs and whitespace) is a
    malformed request and surfaces as a 400, never a silent
    mis-decode or a 500. Escaped bytes are accumulated and decoded as
    UTF-8 at the end, so multibyte sequences (``%C3%A9`` → ``é``)
    come out as the character, not two mojibake code points.
    """
    out = bytearray()
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "%":
            digits = text[i + 1:i + 3]
            if len(digits) != 2 or not (
                digits[0] in _HEX and digits[1] in _HEX
            ):
                raise _HttpError(
                    400, f"malformed percent escape {text[i:i + 3]!r}"
                )
            out.append(int(digits, 16))
            i += 3
        elif ch == "+":
            out.append(0x20)
            i += 1
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError:
        raise _HttpError(
            400, "percent-encoded bytes are not valid UTF-8"
        ) from None
