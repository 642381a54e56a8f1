"""Drive generated requests at a stack, time them, and check the answers.

Only the call into the program is inside a timed region: requests are
bound to callables before a chunk is timed and answers are checked after
it. A refused or failed request, an invalid request that was accepted and
a valid one that was rejected all count as failures.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import UpdateError
from repro.serve.load import http_request

from .gen import CHART, UNKNOWN_PHYSICIAN, Model, Op, canon
from .stacks import Stack
from .stats import REFERENCE_INLINE_S, reference_kernel
from .trace import Recorder

__all__ = [
    "PassResult",
    "run_inprocess",
    "verify_state",
    "run_http_closed",
    "run_http_open",
    "open_loop",
    "replicas_identical",
]

WRITE_KINDS = ("insert", "replace", "delete")


class PassResult:
    """Everything one pass measured."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {}
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.writes = 0            # accepted insert / replace / delete
        self.plan_ops = 0          # database operations in accepted plans
        self.user_bytes = 0        # JSON bytes of the instances written
        self.query_results = 0     # instances returned by query requests
        self.errors: List[str] = []
        self.truncated = False
        # Host-speed normalised twins of ``latency`` and ``wall``: each
        # request divided by the host's slowdown around it.
        self.norm_latency: Dict[str, List[float]] = {}
        self.norm_wall = 0.0
        self.slowdown: List[float] = []  # the host-speed samples taken

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def write_count(self) -> int:
        return sum(len(self.latency.get(kind, ())) for kind in WRITE_KINDS)


def _bind(op: Op, facades: Dict[str, Any]) -> Tuple[Callable[..., Any], tuple]:
    facade = facades[op.obj]
    verb = op.via if op.kind == "invalid" else op.kind
    if verb == "insert":
        return facade.insert, (op.obj, op.payload)
    if verb == "replace":
        return facade.replace, (op.obj, op.key, op.payload)
    if verb == "delete":
        return facade.delete, (op.obj, op.key)
    if verb == "get":
        return facade.get, (op.obj, op.key)
    return facade.query, (op.obj, op.text)


def _user_bytes(payload: Any) -> int:
    return len(json.dumps(payload, separators=(",", ":")))


def _check_answer(
    op: Op, ok: bool, out: Any, result: PassResult, check_read: bool
) -> None:
    if op.kind == "invalid":
        if ok:
            result.fail(f"invalid {op.via} of {op.obj}{op.key} was accepted")
        elif not isinstance(out, UpdateError):
            result.fail(f"invalid {op.via} raised {type(out).__name__}: {out}")
        else:
            result.rejected += 1
        return
    if not ok:
        result.fail(f"{op.kind} {op.obj}{op.key}: {type(out).__name__}: {out}")
        return
    if op.kind in WRITE_KINDS:
        result.writes += 1
        result.plan_ops += len(out)
        if op.payload is not None:
            result.user_bytes += _user_bytes(op.payload)
    elif op.kind == "query":
        result.query_results += len(out)
        if check_read and sorted(i.key for i in out) != op.expect:
            result.fail(f"query {op.text!r} returned the wrong instances")
    elif op.kind == "get" and check_read:
        if out is None or canon(out.to_dict()) != canon(op.expect):
            result.fail(f"get {op.obj}{op.key} read back a different instance")


#: In process the host's speed is sampled by running the reference kernel
#: once between requests whenever this much time has passed since the last
#: sample (and at both ends of every chunk): ~0.5 ms in 20, under 3 % of
#: the pass, and left out of the wall time.
SAMPLE_EVERY_S = 0.020


def run_inprocess(
    stack: Stack,
    chunks: Iterable[List[Op]],
    deadline: float,
    rec: Optional[Recorder] = None,
    read_check_every: int = 1,
) -> PassResult:
    """One closed-loop, single-threaded pass. ``deadline`` (perf_counter
    time) stops a run that is far slower than calibrated; what was done
    until then is reported and checked.

    The requests between two samples of the host's speed form a stretch;
    its latencies and its wall time are divided by the slowdown the four
    samples around it show (the two before, the two after; their median)."""
    result = PassResult()
    clock = time.perf_counter
    rid = 0
    reads = 0
    kernel: List[float] = []                  # seconds per sample, in order
    stretches: List[Tuple[int, float]] = []   # (sample that opened it, wall)
    stretch_of: Dict[str, List[int]] = {}     # per kind, parallel to latency
    next_sample = 0.0
    remaining = iter(chunks)
    while True:
        # Before the next chunk is generated: generating it puts its
        # requests into the reference model.
        if clock() > deadline:
            result.truncated = True
            break
        chunk = next(remaining, None)
        if chunk is None:
            break
        calls = [_bind(op, stack.facades) for op in chunk]
        outcomes: List[Tuple[bool, Any]] = []
        spent: List[float] = []
        where: List[int] = []
        opened = 0.0
        for fn, args in calls:
            if rec is not None:
                rec.current_rid = rid
                rid += 1
            start = clock()
            if start >= next_sample:
                if where:
                    stretches.append((len(kernel) - 1, start - opened))
                reference_kernel()
                opened = clock()
                kernel.append(opened - start)
                next_sample = opened + SAMPLE_EVERY_S
                start = opened
            try:
                out = fn(*args)
                ok = True
            except Exception as exc:  # the boundary: count it, keep going
                out = exc
                ok = False
            spent.append(clock() - start)
            where.append(len(stretches))
            outcomes.append((ok, out))
        start = clock()
        stretches.append((len(kernel) - 1, start - opened))
        reference_kernel()
        kernel.append(clock() - start)
        next_sample = 0.0  # the next chunk opens with a sample of its own
        if rec is not None:
            rec.current_rid = None
        for op, (ok, out), seconds, stretch in zip(chunk, outcomes, spent, where):
            kind = "get" if op.kind == "query" else op.kind
            result.latency.setdefault(kind, []).append(seconds)
            stretch_of.setdefault(kind, []).append(stretch)
            check_read = False
            if op.kind in ("get", "query"):
                reads += 1
                check_read = reads % read_check_every == 0
            _check_answer(op, ok, out, result, check_read)
        result.attempted += len(chunk)
    slowdown = [
        statistics.median(kernel[max(0, first - 1):first + 3]) / REFERENCE_INLINE_S
        for first, _ in stretches
    ]
    result.slowdown = [seconds / REFERENCE_INLINE_S for seconds in kernel]
    result.wall = sum(wall for _, wall in stretches)
    result.norm_wall = sum(
        wall / slow for (_, wall), slow in zip(stretches, slowdown))
    result.norm_latency = {
        kind: [seconds / slowdown[stretch]
               for seconds, stretch in zip(samples, stretch_of[kind])]
        for kind, samples in result.latency.items()
    }
    return result


def verify_state(
    facades: Dict[str, Any], model: Model, result: PassResult
) -> None:
    """Every acked insert / replace reads back equal, every delete and
    every rejected insert is absent, and structural integrity holds."""
    for obj, live in model.live.items():
        facade = facades[obj]
        for key, expected in live.items():
            got = facade.get(obj, key)
            if got is None or canon(got.to_dict()) != canon(expected):
                result.fail(f"after the run {obj}{key} does not read back")
        for key in model.absent.get(obj, ()):
            if facade.get(obj, key) is not None:
                result.fail(f"after the run {obj}{key} exists but must not")
    for facade in {id(f): f for f in facades.values()}.values():
        violations = facade.check_integrity()
        if violations:
            result.fail(f"check_integrity: {violations[0]}")
    chart = facades.get(CHART)
    if chart is not None and hasattr(chart, "engine"):
        if chart.engine.get("PHYSICIAN", (UNKNOWN_PHYSICIAN,)) is not None:
            result.fail("a rejected insert left a PHYSICIAN tuple behind")


# -- HTTP ---------------------------------------------------------------------------


def _wire(op: Op) -> Tuple[str, str, Optional[bytes], int]:
    """Method, path, body and the status a correct server answers."""
    base = f"/objects/{op.obj}"
    key = ",".join(str(part) for part in op.key)
    if op.kind == "insert":
        body = json.dumps({"instance": op.payload}).encode("utf-8")
        return "POST", base, body, 201
    if op.kind == "replace":
        body = json.dumps({"instance": op.payload}).encode("utf-8")
        return "PUT", f"{base}/{key}", body, 200
    if op.kind == "delete":
        return "DELETE", f"{base}/{key}", None, 200
    return "GET", f"{base}/{key}", None, 200


def _check_http(op: Op, status: int, body: bytes, expected: int,
                result: PassResult) -> None:
    if status != expected:
        result.fail(f"{op.kind} {op.key} -> HTTP {status}: {body[:120]!r}")
        return
    if op.kind in WRITE_KINDS:
        result.writes += 1
        result.plan_ops += json.loads(body).get("operations", 0)
        if op.payload is not None:
            result.user_bytes += _user_bytes(op.payload)
    elif canon(json.loads(body)["instance"]) != canon(op.expect):
        result.fail(f"GET {op.key} read back a different instance")


async def open_loop(
    ops: Sequence[Any],
    due_of: Callable[[Any], float],
    send: Callable[[Any], Any],
    clock: Callable[[], float],
    sleep: Callable[[float], Any],
) -> List[Tuple[Any, float, float, float]]:
    """Send each op at its due time, never earlier; a late sender sends at
    once. Returns ``(op, due, sent, done)`` — latency is ``done - due``, so
    the wait a stall imposes on later requests is counted; ``sent - due``
    is how late the generator ran."""
    start = clock()
    out = []
    for op in ops:
        due = start + due_of(op)
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        sent = clock()
        await send(op)
        out.append((op, due, sent, clock()))
    return out


async def _lane(
    stack: Stack,
    ops: List[Op],
    result: PassResult,
    rec: Optional[Recorder],
    rid_base: int,
    opened: bool,
    samples: List[Tuple[Op, float, float, float]],
) -> None:
    server = stack.server
    reader, writer = await asyncio.open_connection(server.host, server.port)
    wires = [_wire(op) for op in ops]
    answers: Dict[int, Tuple[int, bytes]] = {}
    clock = time.perf_counter
    index_of = {id(op): index for index, op in enumerate(ops)}

    async def send(op: Op) -> None:
        index = index_of[id(op)]
        method, path, body, _ = wires[index]
        if rec is not None:
            stack.inflight[op.key] = rid_base + index
            if index % 16 == 0:
                stack.note_lag()
        answers[index] = await http_request(reader, writer, method, path, body)

    try:
        timed = await open_loop(
            ops,
            (lambda op: op.due) if opened else (lambda op: 0.0),
            send, clock, asyncio.sleep,
        )
    finally:
        writer.close()
        await writer.wait_closed()
    for index, (op, due, sent, done) in enumerate(timed):
        status, body = answers[index]
        start = due if opened else sent
        result.latency.setdefault(op.kind, []).append(done - start)
        samples.append((op, due, sent, done))
        if rec is not None:
            rec.add(
                "serve.request", sent, done, (rid_base + index,),
                {"kind": op.kind, "cross": op.cross},
            )
        _check_http(op, status, body, wires[index][3], result)
    result.attempted += len(ops)


#: Over HTTP the client thread runs the reference kernel once every
#: ``HTTP_SAMPLE_EVERY_S`` while the requests are in flight; a request is
#: divided by the median slowdown of the samples within ``HTTP_WINDOW_S``
#: of its midpoint. A sample that lost the interpreter lock half-way is an
#: outlier the median drops.
HTTP_SAMPLE_EVERY_S = 0.030
HTTP_WINDOW_S = 0.5

KernelSamples = List[Tuple[float, float]]  # (when, seconds)


def _run_lanes(
    stack: Stack,
    lanes: List[List[Op]],
    rec: Optional[Recorder],
    rid_base: int,
    opened: bool,
) -> Tuple[PassResult, List[Tuple[Op, float, float, float]], KernelSamples]:
    result = PassResult()
    samples: List[Tuple[Op, float, float, float]] = []
    kernel: KernelSamples = []
    clock = time.perf_counter

    async def sample_host(stop: asyncio.Event) -> None:
        while not stop.is_set():
            await asyncio.sleep(HTTP_SAMPLE_EVERY_S)
            start = clock()
            reference_kernel()
            kernel.append((start, clock() - start))

    async def main() -> None:
        offsets = [rid_base + sum(len(l) for l in lanes[:i])
                   for i in range(len(lanes))]
        stop = asyncio.Event()
        sampling = asyncio.ensure_future(sample_host(stop))
        try:
            await asyncio.gather(*(
                _lane(stack, ops, result, rec, offset, opened, samples)
                for ops, offset in zip(lanes, offsets)
            ))
        finally:
            stop.set()
            await sampling

    start = clock()
    asyncio.run(main())
    result.wall = clock() - start
    return result, samples, kernel


def _slowdown_at(kernel: KernelSamples) -> Callable[[float], float]:
    """The host's slowdown around a moment of the pass."""
    times = [when for when, _ in kernel]
    overall = statistics.median(seconds for _, seconds in kernel)

    def at(moment: float) -> float:
        near = kernel[bisect.bisect_left(times, moment - HTTP_WINDOW_S):
                      bisect.bisect_right(times, moment + HTTP_WINDOW_S)]
        seconds = statistics.median(s for _, s in near) if near else overall
        return seconds / REFERENCE_INLINE_S

    return at


def run_http_closed(
    stack: Stack, lanes: List[List[Op]], rec: Optional[Recorder] = None,
) -> Tuple[PassResult, float]:
    """Closed loop: each connection sends its next request when the last
    one was answered. Wall time includes draining the replicas to
    quiescence; the drain alone is returned second."""
    result, samples, kernel = _run_lanes(stack, lanes, rec, 0, opened=False)
    start = time.perf_counter()
    for shard in stack.sharded.shards:
        shard.replica_set.catch_up()
    drain = time.perf_counter() - start
    result.wall += drain
    if not kernel:  # a pass shorter than one sampling interval
        kernel.append((start, REFERENCE_INLINE_S))
    slowdown_at = _slowdown_at(kernel)
    around = [slowdown_at(when) for when, _ in kernel]
    result.slowdown = around
    # The samples are evenly spaced, so this is the time average.
    result.norm_wall = result.wall * statistics.fmean(1.0 / s for s in around)
    for op, _, sent, done in samples:
        result.norm_latency.setdefault(op.kind, []).append(
            (done - sent) / slowdown_at((sent + done) / 2.0))
    return result, drain


def run_http_open(
    stack: Stack, rate: float, lanes: List[List[Op]],
) -> Tuple[PassResult, List[float], List[float]]:
    """Open loop at ``rate`` requests/s over both connections. Returns the
    result, generator lateness per request, and the latencies (from due
    time) of the writes."""
    result, samples, _ = _run_lanes(stack, lanes, None, 0, opened=True)
    samples.sort(key=lambda sample: sample[1])  # by due time, across lanes
    late = [sent - due for _, due, sent, _ in samples]
    writes = [done - due for op, due, _, done in samples
              if op.kind in WRITE_KINDS]
    for shard in stack.sharded.shards:
        shard.replica_set.catch_up()
    return result, late, writes


def replicas_identical(stack: Stack, result: PassResult) -> None:
    """At quiescence every replica holds its primary's rows exactly."""
    sharded = stack.sharded
    for shard in sharded.shards:
        primary = shard.engine
        for replica in shard.replica_set.replicas:
            for relation in sharded.graph.relation_names:
                if sorted(primary.scan(relation), key=repr) != sorted(
                    replica.engine.scan(relation), key=repr
                ):
                    result.fail(
                        f"shard {shard.shard_id} replica {replica.name}: "
                        f"{relation} differs from the primary"
                    )
