"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root states the same lists for the
driver; ``tests/test_e2e_catalogue.py`` keeps the two equal. Each per-layer
entry also names the end-to-end metric it should move and where, which
is what the README's glossary prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "benchmark_json"]

RUN_SECONDS = 12

WORKLOADS: List[Tuple[str, str]] = [
    ("translate-deep",
     "In-memory Penguin, 61-tuple charts and the depth-7 chain, no logs: "
     "core.updates does most of the work, so translator changes show here "
     "and log changes must not."),
    ("durable-write",
     "File-backed sqlite + FileJournal + FileAuditLog, flat 2-op charts: "
     "journal, audit and engine commit are most of a write, so log changes "
     "show here and translator changes barely."),
    ("read-mostly",
     "Lazy materialized view over 2000 charts, zipf 0.9, 95% get: cache "
     "hits, misses and per-write invalidation are the hot path, so a write "
     "gain that costs reads shows."),
    ("http-cluster",
     "PenguinServer over 2 shards x 2 replicas on file-backed stacks, 4 "
     "keep-alive connections: only here do serve, shard and replicate "
     "carry weight."),
]

#: name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("insert_p50_ms", "ms", "lower", 0.25),
    ("replace_p50_ms", "ms", "lower", 0.25),
    ("delete_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("write_p95_ms", "ms", "lower", 0.25),
    ("read_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

_TD, _DW, _RM, _HC = "translate-deep", "durable-write", "read-mostly", "http-cluster"

#: name, unit, better, the end-to-end metric it should move (and where)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    # serve
    ("serve.self_us_p50", "us", "lower", f"*_p50_ms, throughput_ops_s on {_HC}"),
    ("serve.self_us_p95", "us", "lower", f"write_p95_ms, read_p95_ms on {_HC}"),
    ("serve.share", "ratio", "lower", f"throughput_ops_s on {_HC}; 0 elsewhere"),
    ("serve.batch_wait_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_HC}"),
    ("serve.fold_factor", "ratio", "higher", f"throughput_ops_s on {_HC}"),
    ("serve.shed_total", "count", "lower", f"failed requests on {_HC}"),
    ("serve.max_rate_within_limit", "1/s", "higher", f"throughput_ops_s on {_HC}"),
    ("serve.open_write_p95_ms", "ms", "lower", f"write_p95_ms on {_HC} (open loop, 80/s)"),
    ("serve.open_late_ms_p95", "ms", "lower", "none: generator lateness, a validity check"),
    ("serve.start_s", "s", "lower", f"setup_s on {_HC}"),
    # shard
    ("shard.route_self_us_p50", "us", "lower", f"*_p50_ms on {_HC}"),
    ("shard.share", "ratio", "lower", f"throughput_ops_s on {_HC}; 0 elsewhere"),
    ("shard.cross_shard_ratio", "ratio", "lower", f"write_p95_ms on {_HC}"),
    ("shard.twophase_us_p50", "us", "lower", f"write_p95_ms on {_HC}"),
    # replicate
    ("replicate.ship_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_HC}"),
    ("replicate.ship_us_p95", "us", "lower", f"write_p95_ms on {_HC}"),
    ("replicate.receive_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_HC}"),
    ("replicate.share", "ratio", "lower", f"throughput_ops_s on {_HC}; 0 elsewhere"),
    ("replicate.lag_records_max", "count", "lower", f"throughput_ops_s on {_HC} (drain is in wall time)"),
    ("replicate.drain_s", "s", "lower", f"throughput_ops_s on {_HC}"),
    # core.updates
    ("core.updates.translate_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_TD}"),
    ("core.updates.translate_us_p95", "us", "lower", f"write_p95_ms on {_TD}"),
    ("core.updates.share", "ratio", "lower", f"throughput_ops_s on {_TD} (>=0.6); <=0.25 on {_DW}"),
    ("core.updates.plan_ops_per_request", "count", "lower", f"write latencies on {_TD}, {_DW}"),
    ("core.updates.engine_reads_per_request", "count", "lower", f"write latencies on {_TD}"),
    ("core.updates.rejected_ratio", "ratio", "lower", "none: must equal the generated invalid share"),
    ("core.updates.compile_s", "s", "lower", "setup_s everywhere"),
    # core.instantiation / core.query / set-up steps
    ("core.instantiation.assemble_us_p50", "us", "lower", f"read_p50_ms on {_TD}, {_DW}"),
    ("core.instantiation.engine_reads_per_instance", "count", "lower", f"read_p50_ms on {_TD}"),
    ("core.instantiation.share", "ratio", "lower", f"throughput_ops_s on {_TD}"),
    ("core.query.query_us_p50", "us", "lower", f"throughput_ops_s on {_RM}"),
    ("core.query.rows_read_per_result", "count", "lower", f"throughput_ops_s on {_RM}"),
    ("core.query.share", "ratio", "lower", f"throughput_ops_s on {_RM}"),
    ("core.define_object_s", "s", "lower", "setup_s everywhere"),
    ("dialog.choose_translator_s", "s", "lower", "setup_s everywhere"),
    ("strategy.check_s", "s", "lower", "setup_s everywhere (inside the dialog step)"),
    ("workloads.populate_s", "s", "lower", "setup_s everywhere"),
    # relational.engine
    ("relational.engine.apply_batch_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_DW}"),
    ("relational.engine.apply_batch_us_p95", "us", "lower", f"write_p95_ms on {_DW}"),
    ("relational.engine.write_share", "ratio", "lower", f"throughput_ops_s on {_DW}"),
    ("relational.engine.read_us_per_op", "us", "lower", f"read_p50_ms on {_DW}; write latencies on {_TD}"),
    ("relational.engine.read_calls_per_op", "count", "lower", f"write latencies on {_TD}"),
    ("relational.engine.db_bytes_per_write", "bytes", "lower", f"stored_bytes_per_user_byte on {_DW}"),
    # relational.journal / obs.audit
    ("relational.journal.begin_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_DW}"),
    ("relational.journal.mark_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_DW}"),
    ("relational.journal.write_share", "ratio", "lower", f"throughput_ops_s on {_DW}; 0 on {_TD}"),
    ("relational.journal.bytes_per_write", "bytes", "lower", f"stored_bytes_per_user_byte on {_DW}"),
    ("relational.journal.fsyncs_per_write", "count", "lower", f"fsyncs_per_write on {_DW}"),
    ("obs.audit.append_us_p50", "us", "lower", f"insert/replace/delete_p50_ms on {_DW}"),
    ("obs.audit.write_share", "ratio", "lower", f"throughput_ops_s on {_DW}; 0 on {_TD}"),
    ("obs.audit.bytes_per_write", "bytes", "lower", f"stored_bytes_per_user_byte on {_DW}"),
    ("obs.audit.fsyncs_per_write", "count", "lower", f"fsyncs_per_write on {_DW}"),
    # materialize
    ("materialize.hit_rate", "ratio", "higher", f"read_p50_ms, throughput_ops_s on {_RM}"),
    ("materialize.hit_us_p50", "us", "lower", f"read_p50_ms, read_p95_ms on {_RM}"),
    ("materialize.miss_us_p50", "us", "lower", f"throughput_ops_s on {_RM}"),
    ("materialize.share", "ratio", "lower", f"throughput_ops_s on {_RM}"),
    ("materialize.sync_us_per_write", "us", "lower", f"throughput_ops_s on {_RM}"),
    ("materialize.invalidations_per_write", "count", "lower", f"throughput_ops_s on {_RM}"),
    ("materialize.reassembled_per_write", "count", "lower", f"throughput_ops_s on {_RM}"),
    # whole-stack counts and checks (workload-specific, so not end-to-end)
    ("fsyncs_per_write", "count", "lower", f"write latencies on {_DW} on a real disk"),
    ("stored_bytes_per_user_byte", "ratio", "lower", f"none in time; the space cost on {_DW}"),
    ("recover_s", "s", "lower", f"none in the timed pass; restart cost on {_DW}"),
    ("failed_ratio", "ratio", "lower", "none: must be 0"),
    ("insert_p95_ms", "ms", "lower", "write_p95_ms"),
    ("replace_p95_ms", "ms", "lower", "write_p95_ms"),
    ("delete_p95_ms", "ms", "lower", "write_p95_ms"),
    ("unattributed_share", "ratio", "lower", "none: >0.15 is a missing boundary and fails the pass"),
    ("trace_overhead_ratio", "ratio", "higher", "none: traced / untraced throughput"),
]


def benchmark_json() -> Dict[str, Any]:
    """What ``BENCHMARK.json`` must contain."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }
