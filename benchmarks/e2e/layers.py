"""Per-layer metrics from one traced pass.

Input: the recorder's spans, the pass result, and the counters read
around the pass (cache stats, batcher counters, file sizes, fsync counts).
Output: ``{metric name: value}`` for every name in
``catalogue.PER_LAYER`` that this workload can state; the caller fills
the rest with 0.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .runner import WRITE_KINDS, PassResult
from .stats import percentile, ratio
from .trace import LAYERS, Span, covered, layer_of, self_times

__all__ = ["layer_metrics", "UNATTRIBUTED_LIMIT"]

#: More wall time than this outside every layer span means a boundary is
#: missing; the traced pass fails.
UNATTRIBUTED_LIMIT = 0.15

_US = 1e6


def _p(samples: Sequence[float], q: float, scale: float = _US) -> float:
    return percentile(samples, q) * scale


def layer_metrics(
    spans: Sequence[Span],
    result: PassResult,
    counters: Dict[str, float],
    child_cost: float = 0.0,
) -> Dict[str, float]:
    by_id = {span.sid: span for span in spans}
    selfs = self_times(spans, child_cost)
    out: Dict[str, float] = {}

    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(prefix: str) -> List[Span]:
        return [s for name, group in by_name.items()
                if name == prefix or name.startswith(prefix + ".")
                for s in group]

    def under(span: Span, layer: str) -> bool:
        """Whether an in-thread ancestor of ``span`` belongs to ``layer``."""
        parent = span.parent
        while parent is not None:
            ancestor = by_id[parent]
            if layer_of(ancestor.name) == layer:
                return True
            parent = ancestor.parent
        return False

    kids_of: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids_of.setdefault(span.parent, []).append(span)

    def child_cover(span: Span, layer: str) -> float:
        kids = [(s.start, s.end) for s in kids_of.get(span.sid, ())
                if layer_of(s.name) == layer]
        return covered((span.start, span.end), kids)

    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = layer_of(span.name)
        if layer in self_by_layer and span.rids:
            self_by_layer[layer] += selfs[span.sid]

    # Requests are the root spans: the facade call in process, the client
    # request over HTTP. Their union is the wall time the layers explain.
    over_http = any(s.name == "serve.request" for s in spans)
    requests = [s for s in spans if s.parent is None and s.rids and (
        s.name == "serve.request" or not over_http
    )]
    request_time = sum(s.duration for s in requests)
    write_requests = [
        s for s in requests
        if s.name.startswith("core.updates")
        or (s.tags or {}).get("kind") in WRITE_KINDS
    ]
    write_rids = {rid for s in write_requests for rid in s.rids}
    write_time = sum(s.duration for s in write_requests)
    busy = covered(
        (min((s.start for s in requests), default=0.0),
         max((s.end for s in requests), default=0.0)),
        [(s.start, s.end) for s in requests],
    )
    out["unattributed_share"] = max(0.0, 1.0 - ratio(busy, result.wall))

    def write_self(layer: str) -> float:
        return sum(
            selfs[s.sid] for s in spans
            if layer_of(s.name) == layer and write_rids.intersection(s.rids)
        )

    writes = max(1, result.writes + result.rejected)
    ops = max(1, result.attempted)

    # serve / shard / replicate: only the HTTP stack has them.
    serve = named("serve.request")
    out["serve.self_us_p50"] = _p([selfs[s.sid] for s in serve], 50)
    out["serve.self_us_p95"] = _p([selfs[s.sid] for s in serve], 95)
    out["serve.share"] = ratio(self_by_layer["serve"], request_time)
    shard = named("shard")
    out["shard.route_self_us_p50"] = _p([selfs[s.sid] for s in shard], 50)
    out["shard.share"] = ratio(self_by_layer["shard"], request_time)
    cross_rids = {rid for s in serve if (s.tags or {}).get("cross")
                  for rid in s.rids}
    out["shard.twophase_us_p50"] = _p(
        [s.duration for s in named("shard.apply_plan_batch")
         if cross_rids.intersection(s.rids)], 50)
    out["shard.cross_shard_ratio"] = ratio(len(cross_rids), len(write_rids))
    ships = [
        s.duration - child_cover(s, "core.updates")
        for s in named("replicate.apply_plan")
    ]
    out["replicate.ship_us_p50"] = _p(ships, 50)
    out["replicate.ship_us_p95"] = _p(ships, 95)
    out["replicate.receive_us_p50"] = _p(
        [s.duration for s in named("replicate.receive")], 50)
    out["replicate.share"] = ratio(self_by_layer["replicate"], request_time)

    # core.updates: the translator's own time, engine and logs excluded.
    translate = [selfs[s.sid] for s in named("core.updates")
                 if s.parent is None or not under(s, "core.updates")]
    out["core.updates.translate_us_p50"] = _p(translate, 50)
    out["core.updates.translate_us_p95"] = _p(translate, 95)
    out["core.updates.share"] = ratio(write_self("core.updates"), write_time)
    out["core.updates.plan_ops_per_request"] = ratio(
        result.plan_ops, result.writes)
    reads = named("relational.engine.read")
    out["core.updates.engine_reads_per_request"] = ratio(
        sum(1 for s in reads if under(s, "core.updates")), writes)
    out["core.updates.rejected_ratio"] = ratio(result.rejected, ops)

    assemble = named("core.instantiation")
    out["core.instantiation.assemble_us_p50"] = _p(
        [s.duration for s in assemble], 50)
    out["core.instantiation.engine_reads_per_instance"] = ratio(
        sum(1 for s in reads if under(s, "core.instantiation")),
        len(assemble))
    out["core.instantiation.share"] = ratio(
        self_by_layer["core.instantiation"], request_time)
    queries = named("core.query")
    out["core.query.query_us_p50"] = _p([s.duration for s in queries], 50)
    out["core.query.rows_read_per_result"] = ratio(
        sum((s.tags or {}).get("rows", 0) for s in reads
            if under(s, "core.query")),
        counters.get("query_results", 0))
    out["core.query.share"] = ratio(self_by_layer["core.query"], request_time)

    # relational.engine: mutation time per write request, reads per op.
    mutate: Dict[int, float] = {}
    for span in spans:
        if layer_of(span.name) == "relational.engine" and not span.name.endswith(
            ".read"
        ):
            for rid in span.rids:
                mutate[rid] = mutate.get(rid, 0.0) + selfs[span.sid]
    per_write = [mutate[rid] for rid in write_rids if rid in mutate]
    out["relational.engine.apply_batch_us_p50"] = _p(per_write, 50)
    out["relational.engine.apply_batch_us_p95"] = _p(per_write, 95)
    out["relational.engine.read_us_per_op"] = ratio(
        sum(s.duration for s in reads if s.rids), ops) * _US
    out["relational.engine.read_calls_per_op"] = ratio(
        sum(1 for s in reads if s.rids), ops)
    out["relational.engine.write_share"] = ratio(
        write_self("relational.engine"), write_time)
    out["relational.engine.db_bytes_per_write"] = ratio(
        counters.get("db_bytes", 0), result.writes)

    # The two file logs.
    out["relational.journal.begin_us_p50"] = _p(
        [s.duration for s in named("relational.journal.begin")], 50)
    out["relational.journal.mark_us_p50"] = _p(
        [s.duration for s in named("relational.journal.mark")], 50)
    out["relational.journal.bytes_per_write"] = ratio(
        counters.get("journal_bytes", 0), result.writes)
    out["relational.journal.fsyncs_per_write"] = ratio(
        counters.get("journal_fsyncs", 0), result.writes)
    out["relational.journal.write_share"] = ratio(
        write_self("relational.journal"), write_time)
    out["obs.audit.append_us_p50"] = _p(
        [s.duration for s in named("obs.audit.append")], 50)
    out["obs.audit.bytes_per_write"] = ratio(
        counters.get("audit_bytes", 0), result.writes)
    out["obs.audit.fsyncs_per_write"] = ratio(
        counters.get("audit_fsyncs", 0), result.writes)
    out["obs.audit.write_share"] = ratio(write_self("obs.audit"), write_time)
    out["fsyncs_per_write"] = ratio(
        counters.get("journal_fsyncs", 0) + counters.get("audit_fsyncs", 0)
        + counters.get("other_fsyncs", 0), result.writes)
    out["stored_bytes_per_user_byte"] = ratio(
        counters.get("journal_bytes", 0) + counters.get("audit_bytes", 0)
        + counters.get("db_bytes", 0), result.user_bytes)

    # materialize: a get whose span holds engine reads took the miss path.
    gets = named("materialize.get")
    missed = {s.parent for s in reads if s.parent is not None}
    for span in reads:  # reads below a sync below the get count too
        parent = span.parent
        while parent is not None:
            missed.add(parent)
            parent = by_id[parent].parent
    out["materialize.hit_us_p50"] = _p(
        [s.duration for s in gets if s.sid not in missed], 50)
    out["materialize.miss_us_p50"] = _p(
        [s.duration for s in gets if s.sid in missed], 50)
    out["materialize.hit_rate"] = ratio(
        counters.get("cache_hits", 0),
        counters.get("cache_hits", 0) + counters.get("cache_misses", 0))
    out["materialize.sync_us_per_write"] = ratio(
        sum(selfs[s.sid] for s in named("materialize.sync")),
        result.writes) * _US
    out["materialize.invalidations_per_write"] = ratio(
        counters.get("cache_invalidations", 0), result.writes)
    out["materialize.reassembled_per_write"] = ratio(
        counters.get("cache_misses", 0) + counters.get("cache_refreshes", 0),
        result.writes)
    out["materialize.share"] = ratio(
        self_by_layer["materialize"], request_time)
    return out
