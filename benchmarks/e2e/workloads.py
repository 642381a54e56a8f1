"""The four workloads, end to end: generate, set up, warm up, time, check.

One invocation measures one workload. ``--trace 0`` reports the
end-to-end metrics from an untraced pass with ``repro.obs`` in the entry
point's default state (off in process, on under the HTTP server, as
``python -m repro serve`` configures it). ``--trace 1`` reports the
per-layer metrics from a traced pass at a quarter of the requests, next
to an untraced pass of the same requests that gives the tracing overhead.

The request count is ``OPS_PER_SECOND[workload] * seconds``: the rates
were calibrated once on the reference sandbox so a timed pass lasts about
``--seconds``, and are frozen so that a seed fixes the requests exactly.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.obs as obs

from . import gen, stacks
from .catalogue import END_TO_END, PER_LAYER
from .layers import UNATTRIBUTED_LIMIT, layer_metrics
from .runner import (
    PassResult,
    replicas_identical,
    run_http_closed,
    run_http_open,
    WRITE_KINDS,
    run_inprocess,
    verify_state,
)
from .stats import (
    host_slowdown_sample,
    median,
    percentile,
    ratio,
    supported_tail,
)
from .trace import FsyncCounter, Recorder

__all__ = ["run_workload", "OPS_PER_SECOND", "data_root"]

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Requests per second of ``--seconds`` (frozen calibration; see README).
OPS_PER_SECOND = {
    "translate-deep": 700,
    "durable-write": 1600,
    "read-mostly": 8000,
    "http-cluster": 180,
}
MIN_OPS = 200            # enough for every request type to occur
MIN_SETUPS, MAX_SETUPS = 3, 9   # set-ups per run; setup_s is their median
SETUP_BUDGET_S = 2.0     # stop adding set-up samples once they cost this
WARM_SHARE = 0.15        # warm-up pass, as a share of the timed requests
TRACE_SHARE = 0.25       # traced (and paired untraced) pass
OPEN_RATES = (40, 80, 160)   # requests/s, http-cluster open loop
OPEN_SHARE = 0.2         # seconds per open-loop rate, as a share of --seconds
OPEN_LIMIT_S = 0.050     # write p95 limit that defines max_rate_within_limit
READ_CHECK_EVERY = {"read-mostly": 16}  # check one read in N as it happens


def data_root() -> str:
    """Where file-backed stacks live: tmpfs when the host has one, else
    the benchmark's own ``out/``. The sandbox disk's fsync cost drifts by
    tens of percent between identical runs; on tmpfs the same writes are
    CPU-bound and repeat. The program's flush policy is untouched."""
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


@contextlib.contextmanager
def _data_dir(root: str) -> Iterator[str]:
    path = tempfile.mkdtemp(prefix="repro-e2e-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _sizes(paths: List[str]) -> Dict[str, int]:
    out = {"journal_bytes": 0, "audit_bytes": 0, "db_bytes": 0}
    for path in paths:
        if not os.path.exists(path):
            continue
        name = os.path.basename(path)
        kind = ("journal_bytes" if name.startswith("journal")
                else "audit_bytes" if name.startswith("audit")
                else "db_bytes")
        out[kind] += os.path.getsize(path)
    return out


def _cache_counters(stack: stacks.Stack) -> Dict[str, float]:
    totals = {"hits": 0.0, "misses": 0.0, "invalidations": 0.0, "refreshes": 0.0}
    sources = []
    if stack.sharded is not None:
        sources = [s.penguin.cache_stats() for s in stack.sharded.shards]
    else:
        sources = [f.cache_stats() for f in stack.facades.values()]
    for by_view in sources:
        for stats in by_view.values():
            for field in totals:
                totals[field] += stats.get(field, 0)
    return {f"cache_{field}": value for field, value in totals.items()}


class _Counters:
    """Counts read before and after a pass; the difference is the pass's."""

    def __init__(self, stack: stacks.Stack) -> None:
        self.stack = stack
        self.before = self._read()

    def _read(self) -> Dict[str, float]:
        return {**_sizes(self.stack.files), **_cache_counters(self.stack)}

    def delta(self) -> Dict[str, float]:
        after = self._read()
        return {name: after[name] - self.before[name] for name in after}


# -- in-process workloads ---------------------------------------------------------------

_IN_PROCESS = {
    "translate-deep": (gen.translate_deep,
                       lambda stream, d, rec: stacks.build_translate_deep(stream, rec)),
    "durable-write": (gen.durable_write, stacks.build_durable),
    "read-mostly": (gen.read_mostly,
                    lambda stream, d, rec: stacks.build_read_mostly(stream, rec)),
}


class _Pass:
    def __init__(self) -> None:
        self.result = PassResult()
        self.setup: Dict[str, float] = {}
        self.setup_s = 0.0          # in process: divided by the host's slowdown
        self.raw_setup_s = 0.0
        self.strategy_check_s = 0.0
        self.counters: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.digest = ""

    def note_setup(
        self, stack: stacks.Stack, slowdown_before: float, normalise: bool
    ) -> None:
        slowdown = (slowdown_before + host_slowdown_sample()) / 2.0
        self.setup = dict(stack.setup)
        self.raw_setup_s = stack.setup_s
        self.setup_s = stack.setup_s / slowdown if normalise else stack.setup_s
        self.strategy_check_s = stack.strategy_check_s


def _restart_check(data_dir: str, stream: gen.OpStream, out: _Pass) -> None:
    """durable-write: a restart from the files alone serves every acked
    write, and the database file holds the same rows. ``recover_s`` runs
    from opening the files to the first read served."""
    start = time.perf_counter()
    restarted = stacks.reopen_durable(data_dir)
    try:
        penguin = restarted.facades[gen.CHART]
        penguin.get(gen.CHART, next(iter(stream.model.live[gen.CHART])))
        out.extra["recover_s"] = time.perf_counter() - start
        if penguin.journal.pending():
            out.result.fail("journal entries still pending after recovery")
        verify_state(restarted.facades, stream.model, out.result)
        for relation in penguin.graph.relation_names:
            on_disk = stacks.sqlite_rows(restarted.files[0], relation)
            if sorted(on_disk, key=repr) != sorted(
                penguin.engine.scan(relation), key=repr
            ):
                out.result.fail(
                    f"{relation}: the sqlite file differs from the state "
                    f"rebuilt from the logs"
                )
    finally:
        restarted.close()


def _inprocess_pass(
    name: str, seed: int, ops: int, root: str, seconds: float,
    rec: Optional[Recorder] = None, timed: bool = True, final_check: bool = True,
) -> _Pass:
    """Generate, set up, run and check one pass on a fresh stack. With
    ``timed=False`` only the set-up happens (a set-up time sample); the
    warm-up pass checks answers as they come but skips the final sweep
    (``final_check=False``)."""
    out = _Pass()
    generate, build = _IN_PROCESS[name]
    stream, chunks = generate(seed, ops)
    with _data_dir(root) as data_dir:
        before = host_slowdown_sample()
        stack = build(stream, data_dir, rec)
        try:
            out.note_setup(stack, before, normalise=True)
            if not timed:
                return out
            if rec is not None:
                rec.spans.clear()
            counters = _Counters(stack)
            deadline = time.perf_counter() + 1.5 * seconds
            fsyncs = FsyncCounter(rec) if rec is not None else None
            with fsyncs or contextlib.nullcontext():
                out.result = run_inprocess(
                    stack, chunks, deadline, rec,
                    READ_CHECK_EVERY.get(name, 1),
                )
            out.counters = counters.delta()
            if fsyncs is not None:
                out.counters.update(fsyncs.counters())
            if final_check:
                verify_state(stack.facades, stream.model, out.result)
        finally:
            stack.close()
        if final_check and name == "durable-write":
            _restart_check(data_dir, stream, out)
    out.digest = stream.digest
    if out.result.rejected != stream.invalid_generated and not out.result.truncated:
        out.result.fail(
            f"{out.result.rejected} requests rejected, "
            f"{stream.invalid_generated} invalid ones generated"
        )
    return out


# -- http-cluster --------------------------------------------------------------------------


def _http_pass(
    seed: int, ops: int, root: str, seconds: float,
    rec: Optional[Recorder] = None, timed: bool = True, final_check: bool = True,
    open_loop: bool = False,
) -> _Pass:
    out = _Pass()
    phases = [(rate, seconds * OPEN_SHARE) for rate in OPEN_RATES] if open_loop else []
    stream, closed, opened = gen.http_cluster(seed, ops, phases)
    with _data_dir(root) as data_dir:
        before = host_slowdown_sample()
        stack = stacks.build_http(stream, data_dir, rec)
        try:
            out.note_setup(stack, before, normalise=False)
            if not timed:
                return out
            if rec is not None:
                rec.spans.clear()
            counters = _Counters(stack)
            fsyncs = FsyncCounter(rec) if rec is not None else None
            with fsyncs or contextlib.nullcontext():
                out.result, drain = run_http_closed(stack, closed, rec)
            out.counters = counters.delta()
            out.extra["replicate.drain_s"] = drain
            out.extra["replicate.lag_records_max"] = stack.lag_max
            if fsyncs is not None:
                out.counters.update(fsyncs.counters())
            batcher = stack.server.batcher
            out.extra["serve.fold_factor"] = ratio(
                batcher.requests_batched, batcher.batches_flushed)
            out.extra["serve.batch_wait_us_p50"] = percentile(stack.batch_waits, 50) * 1e6
            within = 0.0
            for rate, lanes in opened:
                result, late, writes = run_http_open(stack, rate, lanes)
                p95 = percentile(writes, 95)
                tail_late = median(late[-max(1, len(late) // 4):])
                if (p95 <= OPEN_LIMIT_S and tail_late <= OPEN_LIMIT_S
                        and not result.failed):
                    within = max(within, float(rate))
                if rate == OPEN_RATES[1]:
                    out.extra["serve.open_write_p95_ms"] = p95 * 1e3
                    out.extra["serve.open_late_ms_p95"] = percentile(late, 95) * 1e3
                out.result.attempted += result.attempted
                out.result.failed += result.failed
                out.result.errors.extend(result.errors)
            if opened:
                out.extra["serve.max_rate_within_limit"] = within
            out.extra["serve.shed_total"] = stack.server.requests_shed
            if final_check:
                verify_state({gen.CHART: stack.sharded}, stream.model, out.result)
                replicas_identical(stack, out.result)
        finally:
            stack.close()
    out.digest = stream.digest
    return out


# -- assembling the report ---------------------------------------------------------------------


def _ms(samples: List[float], q: float) -> float:
    return percentile(samples, q) * 1e3


def _timings(
    latency: Dict[str, List[float]], attempted: int, wall: float
) -> Dict[str, float]:
    writes = [s for kind in WRITE_KINDS for s in latency.get(kind, ())]
    return {
        "throughput_ops_s": ratio(attempted, wall),
        "insert_p50_ms": _ms(latency.get("insert", []), 50),
        "replace_p50_ms": _ms(latency.get("replace", []), 50),
        "delete_p50_ms": _ms(latency.get("delete", []), 50),
        "read_p50_ms": _ms(latency.get("get", []), 50),
        "write_p95_ms": _ms(writes, 95),
        "read_p95_ms": _ms(latency.get("get", []), 95),
        "insert_p95_ms": _ms(latency.get("insert", []), 95),
        "replace_p95_ms": _ms(latency.get("replace", []), 95),
        "delete_p95_ms": _ms(latency.get("delete", []), 95),
    }


def _end_to_end(result: PassResult, setup_s: float) -> Dict[str, float]:
    """The reported timings (host-speed normalised where the pass was,
    see README) plus, under ``raw.``, the same as the clock read them."""
    out = _timings(result.norm_latency, result.attempted, result.norm_wall)
    raw = _timings(result.latency, result.attempted, result.wall)
    out.update({f"raw.{name}": value for name, value in raw.items()})
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out["host_slowdown"] = median(result.slowdown) if result.slowdown else 1.0
    return out


def _emit(names, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, *_ in names
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, ops_scale: float = 1.0,
    log: Callable[[str], None] = print,
) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Run one workload; returns the result object the command prints and
    the values as the clock read them (``raw.*``, ``host_slowdown``)."""
    ops = max(MIN_OPS, int(OPS_PER_SECOND[name] * seconds * ops_scale))
    root = data_root()
    http = name == "http-cluster"
    if http:
        obs.configure()  # what `python -m repro serve` does

        def one(count, **kw):
            return _http_pass(seed, count, root, seconds, **kw)
        with_open_loop = {"open_loop": True}
    else:
        def one(count, **kw):
            return _inprocess_pass(name, seed, count, root, seconds, **kw)
        with_open_loop = {}
    try:
        log(f"workload {name} seed {seed} requests {ops} data under {root}")
        warm = one(max(MIN_OPS, int(ops * WARM_SHARE)), final_check=False)
        if not trace:
            main = one(ops)
            setups = [warm, main]
            spent = 0.0
            while len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS and spent < SETUP_BUDGET_S
            ):
                started = time.perf_counter()
                setups.append(one(ops, timed=False))
                spent += time.perf_counter() - started
            values = _end_to_end(
                main.result, median(p.setup_s for p in setups))
            values["raw.setup_s"] = median(p.raw_setup_s for p in setups)
            log("set-up samples (s): "
                + " ".join(f"{p.raw_setup_s:.4f}" for p in setups))
            names = END_TO_END
            passes = [warm, main]
        else:
            count = max(MIN_OPS, int(ops * TRACE_SHARE))
            plain = one(count, **with_open_loop)
            rec = Recorder()
            main = one(count, rec=rec)
            values = layer_metrics(rec.spans, main.result, {
                **main.counters,
                "query_results": main.result.query_results,
            }, rec.span_cost_outside())
            values.update(_end_to_end(plain.result, plain.setup_s))
            values.update(plain.extra)
            values.update({k: v for k, v in main.extra.items()
                           if k in ("serve.fold_factor", "serve.batch_wait_us_p50",
                                    "replicate.lag_records_max")})
            for step in ("core.define_object_s", "dialog.choose_translator_s",
                         "workloads.populate_s", "core.updates.compile_s",
                         "serve.start_s"):
                values[step] = plain.setup.get(step, 0.0)
            values["strategy.check_s"] = plain.strategy_check_s
            values["trace_overhead_ratio"] = ratio(
                ratio(main.result.attempted, main.result.wall),
                ratio(plain.result.attempted, plain.result.wall),
            )
            values["failed_ratio"] = ratio(
                sum(p.result.failed for p in (warm, plain, main)),
                sum(p.result.attempted for p in (warm, plain, main)),
            )
            if values["unattributed_share"] > UNATTRIBUTED_LIMIT:
                main.result.fail(
                    f"unattributed_share {values['unattributed_share']:.3f} "
                    f"> {UNATTRIBUTED_LIMIT}: a layer boundary is missing"
                )
            os.makedirs(OUT_DIR, exist_ok=True)
            rec.write_jsonl(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
            names = PER_LAYER
            passes = [warm, plain, main]
    finally:
        if http:
            obs.disable()
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    log(f"op-stream digest {main.digest}")
    counts = {kind: len(v) for kind, v in main.result.latency.items()}
    log("samples in the reported pass: "
        + " ".join(f"{kind}={n}" for kind, n in sorted(counts.items())))
    if not trace:
        for label, n in (("write_p95_ms", main.result.write_count),
                         ("read_p95_ms", counts.get("get", 0))):
            if supported_tail(n) < 95:
                log(f"note: {label} has fewer than ten of its {n} samples "
                    f"beyond it (p{supported_tail(n)} is the highest tail "
                    f"this sample supports)")
    for p in passes:
        for message in p.result.errors:
            log(f"FAILED: {message}")
        if p.result.truncated:
            log("note: a pass hit its deadline and stopped early")
    metrics = _emit(names, values)
    for metric, entry in metrics.items():
        log(f"{metric} {entry['value']:.6g} {entry['unit']}")
    extras = {name: value for name, value in values.items()
              if name == "host_slowdown" or name.startswith("raw.")}
    for name, value in extras.items():
        log(f"({name} {value:.6g})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, extras
