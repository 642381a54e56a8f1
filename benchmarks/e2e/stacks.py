"""Builders for the four stacks the workloads run against.

Building a stack *is* the benchmark's set-up: schema, object definition,
the Section 6 dialog, compilation, population, opening the logs, starting
the server. Each builder times those steps into ``Stack.setup`` (seconds
by step) and their sum is ``setup_s``.

With a :class:`~benchmarks.e2e.trace.Recorder` the same stack is built
with timing proxies at the layer boundaries (see ``trace.py``).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sqlite3
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.updates.operations import Replacement
from repro.obs.audit import FileAuditLog
from repro.penguin import Penguin
from repro.relational.journal import FileJournal
from repro.relational.memory_engine import MemoryEngine
from repro.relational.sqlite_engine import SqliteEngine
from repro.replicate import ReplicationConfig
from repro.serve.http import PenguinServer
from repro.shard import ShardedPenguin, sharded_loader
from repro.shard.router import RangeRouter
from repro.strategy.checks import check_strategy
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import chain_object, chain_schema, populate_chain

from .gen import CHAIN, CHAIN_DEPTH, CHART, SHARD_BOUNDARY, OpStream
from .trace import Recorder, TimedAuditLog, TimedEngine, TimedJournal

__all__ = [
    "Stack",
    "build_translate_deep",
    "build_durable",
    "reopen_durable",
    "sqlite_rows",
    "build_read_mostly",
    "build_http",
]

#: The translator chosen for the in-process chart workloads: referenced
#: relations may not be modified and a re-key may not overwrite another
#: instance, so the generator's invalid requests have something to hit.
RESTRICTIVE = {
    "modify.PHYSICIAN.allowed": False,
    "modify.MEDICATION.allowed": False,
    "replacement.PATIENT.merge_on_conflict": False,
}


class Stack:
    """What a workload drives, plus how to take it down."""

    def __init__(self) -> None:
        self.setup: Dict[str, float] = {}
        self.facades: Dict[str, Any] = {}  # object name -> Penguin-like
        self.sharded: Optional[ShardedPenguin] = None
        self.server: Optional[PenguinServer] = None
        self.files: List[str] = []  # journal / audit / sqlite paths
        self.inflight: Dict[Any, int] = {}  # object key -> request id
        self.batch_waits: List[float] = []
        self.strategy_check_s = 0.0
        self.lag_max = 0
        self._closers: List[Callable[[], None]] = []

    @contextlib.contextmanager
    def step(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.setup[name] = (
                self.setup.get(name, 0.0) + time.perf_counter() - start
            )

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    def note_lag(self) -> None:
        """Sample how far the replicas trail their primaries' streams."""
        for shard in self.sharded.shards:
            replica_set = shard.replica_set
            for replica in replica_set.replicas:
                self.lag_max = max(self.lag_max, replica_set.lag(replica))

    def on_close(self, closer: Callable[[], None]) -> None:
        self._closers.append(closer)

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()


def _memory_engine(rec: Optional[Recorder]):
    engine = MemoryEngine()
    return TimedEngine(engine, rec) if rec is not None else engine


def _bind_chart(stack: Stack, penguin: Any, graph, answers) -> None:
    with stack.step("core.define_object_s"):
        chart = patient_chart_object(graph)
        penguin.register_object(chart)
    with stack.step("dialog.choose_translator_s"):
        penguin.choose_translator(CHART, answers)


def _compile(stack: Stack, penguin: Penguin, name: str) -> None:
    with stack.step("core.updates.compile_s"):
        penguin.translator(name).compiled().prepare_engine(penguin.engine)


def _strategy_check(stack: Stack, penguin: Penguin, name: str) -> None:
    # The translator already ran this at definition time; calling the
    # public checker again is how its cost is seen from outside. Only
    # the traced run reports it, so it is kept out of ``setup_s``.
    translator = penguin.translator(name)
    start = time.perf_counter()
    check_strategy(translator.view_object, translator.policy, translator.analysis)
    stack.strategy_check_s = time.perf_counter() - start


def _wrap_penguin(rec: Recorder, penguin: Penguin, names: Sequence[str]) -> None:
    for verb in ("insert", "replace", "delete"):
        rec.wrap(penguin, verb, f"core.updates.{verb}")
    rec.wrap(penguin, "query", "core.query.query")
    materialized = [n for n in names if penguin.materialized(n) is not None]
    rec.wrap(
        penguin, "get",
        "materialize.get" if materialized else "core.instantiation.get",
    )
    for name in materialized:
        rec.wrap(penguin.materialized(name), "sync", "materialize.sync")


def build_translate_deep(stream: OpStream, rec: Optional[Recorder] = None) -> Stack:
    """Two in-memory sessions: hospital charts and the depth-7 chain.
    No journal, no audit log, nothing materialized."""
    stack = Stack()
    with stack.step("schema_s"):
        hospital_graph = hospital_schema()
        chain_graph = chain_schema(CHAIN_DEPTH)
        hospital = Penguin(hospital_graph, engine=_memory_engine(rec))
        chains = Penguin(chain_graph, engine=_memory_engine(rec))
    _bind_chart(stack, hospital, hospital_graph, RESTRICTIVE)
    with stack.step("core.define_object_s"):
        chains.register_object(chain_object(chain_graph, CHAIN_DEPTH))
    with stack.step("dialog.choose_translator_s"):
        chains.choose_translator(CHAIN, None)
    _compile(stack, hospital, CHART)
    _compile(stack, chains, CHAIN)
    with stack.step("workloads.populate_s"):
        populate_hospital(hospital.engine, HospitalConfig(patients=0))
        populate_chain(chains.engine, depth=CHAIN_DEPTH, roots=0)
        hospital.insert_many(CHART, stream.initial[CHART])
        chains.insert_many(CHAIN, stream.initial[CHAIN])
    _strategy_check(stack, hospital, CHART)
    if rec is not None:
        _wrap_penguin(rec, hospital, [CHART])
        _wrap_penguin(rec, chains, [CHAIN])
    stack.facades = {CHART: hospital, CHAIN: chains}
    return stack


def _open_durable(stack: Stack, data_dir: str, rec: Optional[Recorder]):
    paths = [os.path.join(data_dir, name)
             for name in ("db.sqlite", "journal.log", "audit.log")]
    stack.files = paths
    with stack.step("open_logs_s"):
        engine = SqliteEngine(paths[0])
        journal = FileJournal(paths[1])
        audit = FileAuditLog(paths[2])
        stack.on_close(engine.close)
        stack.on_close(journal.close)
        stack.on_close(audit.close)
        if rec is not None:
            engine = TimedEngine(engine, rec)
            journal = TimedJournal(journal, rec)
            audit = TimedAuditLog(audit, rec)
    return engine, journal, audit


def build_durable(
    stream: OpStream, data_dir: str, rec: Optional[Recorder] = None
) -> Stack:
    """One session on file-backed sqlite with a file journal and a file
    audit log; every fsync and sqlite commit the program asks for happens."""
    stack = Stack()
    with stack.step("schema_s"):
        graph = hospital_schema()
    engine, journal, audit = _open_durable(stack, data_dir, rec)
    with stack.step("schema_s"):
        penguin = Penguin(graph, engine=engine, journal=journal, audit=audit)
    _bind_chart(stack, penguin, graph, RESTRICTIVE)
    _compile(stack, penguin, CHART)
    with stack.step("workloads.populate_s"):
        populate_hospital(penguin.engine, HospitalConfig(patients=0))
        penguin.insert_many(CHART, stream.initial[CHART])
    _strategy_check(stack, penguin, CHART)
    if rec is not None:
        _wrap_penguin(rec, penguin, [CHART])
    stack.facades = {CHART: penguin}
    return stack


def reopen_durable(data_dir: str) -> Stack:
    """A restart from the files alone.

    ``SqliteEngine`` has no way to attach to an existing database file
    (``create_relation`` always issues ``CREATE TABLE``), so a restarted
    process rebuilds its engine from the durable logs: reopen the journal
    and the audit log, re-apply every committed audited plan in order on a
    fresh engine, then let the ``Penguin`` constructor run ``recover`` and
    ``reconcile``. The sqlite file is compared with the rebuilt state
    separately (:func:`sqlite_rows`), read with the stdlib driver."""
    stack = Stack()
    paths = [os.path.join(data_dir, name)
             for name in ("db.sqlite", "journal.log", "audit.log")]
    stack.files = paths
    graph = hospital_schema()
    with stack.step("recover_s"):
        journal = FileJournal(paths[1])
        audit = FileAuditLog(paths[2])
        stack.on_close(journal.close)
        stack.on_close(audit.close)
        engine = MemoryEngine()
        graph.install(engine)
        populate_hospital(engine, HospitalConfig(patients=0))
        for record in audit.committed():
            engine.apply_batch(record.plan().operations)
        penguin = Penguin(
            graph, engine=engine, journal=journal, audit=audit, install=False
        )
    _bind_chart(stack, penguin, graph, RESTRICTIVE)
    stack.facades = {CHART: penguin}
    return stack


def sqlite_rows(path: str, relation: str) -> List[tuple]:
    """One relation's rows as the database file holds them."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return connection.execute(f'SELECT * FROM "{relation}"').fetchall()
    finally:
        connection.close()


def build_read_mostly(stream: OpStream, rec: Optional[Recorder] = None) -> Stack:
    """One in-memory session with the chart lazily materialized."""
    stack = Stack()
    with stack.step("schema_s"):
        graph = hospital_schema()
        penguin = Penguin(graph, engine=_memory_engine(rec))
    _bind_chart(stack, penguin, graph, RESTRICTIVE)
    _compile(stack, penguin, CHART)
    with stack.step("workloads.populate_s"):
        populate_hospital(penguin.engine, HospitalConfig(patients=0))
        penguin.insert_many(CHART, stream.initial[CHART])
    with stack.step("materialize_s"):
        # Fill the cache before timing: a lazy view assembles on first
        # read, and the timed pass measures the steady state.
        penguin.materialize(CHART, "lazy")
        penguin.query(CHART)
    _strategy_check(stack, penguin, CHART)
    if rec is not None:
        _wrap_penguin(rec, penguin, [CHART])
    stack.facades = {CHART: penguin}
    return stack


def build_http(
    stream: OpStream, data_dir: str, rec: Optional[Recorder] = None
) -> Stack:
    """The full stack: HTTP server over 2 shards x 2 replicas, every
    engine file-backed, primaries with file journals and audit logs,
    production replication settings (deferred apply, quorum 1), the chart
    lazily materialized on every stack, server on its own thread."""
    stack = Stack()
    seq = itertools.count()

    def engine():
        path = os.path.join(data_dir, f"stack{next(seq)}.sqlite")
        stack.files.append(path)
        base = SqliteEngine(path)
        stack.on_close(base.close)
        return TimedEngine(base, rec) if rec is not None else base

    with stack.step("schema_s"):
        graph = hospital_schema()
    with stack.step("open_logs_s"):
        journals, audits = [], []
        for shard in range(2):
            journal = FileJournal(os.path.join(data_dir, f"journal{shard}.log"))
            audit = FileAuditLog(os.path.join(data_dir, f"audit{shard}.log"))
            stack.files += [journal.path, audit.path]
            stack.on_close(journal.close)
            stack.on_close(audit.close)
            journals.append(TimedJournal(journal, rec) if rec else journal)
            audits.append(TimedAuditLog(audit, rec) if rec else audit)
        sharded = ShardedPenguin(
            graph,
            "PATIENT",
            router=RangeRouter([SHARD_BOUNDARY]),
            engines=[engine(), engine()],
            journals=journals,
            audits=audits,
            install=True,
            replication=ReplicationConfig(replicas=2, engine_factory=engine),
        )
        stack.on_close(sharded.close)
    with stack.step("core.define_object_s"):
        sharded.register_object(patient_chart_object(graph))
    with stack.step("dialog.choose_translator_s"):
        sharded.choose_translator(CHART, None)
    with stack.step("core.updates.compile_s"):
        for shard in sharded.shards:
            for serving in shard.each_serving():
                serving.translator(CHART).compiled().prepare_engine(
                    serving.engine
                )
    with stack.step("materialize_s"):
        sharded.materialize(CHART, "lazy")
    with stack.step("workloads.populate_s"):
        populate_hospital(sharded_loader(sharded), HospitalConfig(patients=0))
        sharded.insert_many(CHART, stream.initial[CHART])
        for shard in sharded.shards:
            shard.replica_set.catch_up()
    _strategy_check(stack, sharded.shard(0).penguin, CHART)
    if rec is not None:
        _wrap_sharded(rec, stack, sharded)
    with stack.step("serve.start_s"):
        server = PenguinServer(sharded, port=0)
        handle = server.in_background()
        stack.on_close(handle.stop)
    if rec is not None:
        _wrap_batcher(rec, stack, server)
    stack.sharded, stack.server = sharded, server
    return stack


def _request_key(request: Any) -> Any:
    if isinstance(request, Replacement):
        anchor = request.old
    else:
        anchor = request.instance
    key = getattr(anchor, "key", anchor)
    return tuple(key)


def _wrap_sharded(rec: Recorder, stack: Stack, sharded: ShardedPenguin) -> None:
    inflight = stack.inflight

    def batch_rids(name, requests, op="batch"):
        rids = []
        for request in requests:
            rid = inflight.get(_request_key(request))
            if rid is not None:
                rids.append(rid)
        return rids

    def read_rids(name, key):
        rid = inflight.get(tuple(key))
        return () if rid is None else (rid,)

    rec.wrap(sharded, "apply_plan_batch", "shard.apply_plan_batch", batch_rids)
    rec.wrap(sharded, "get_served", "shard.get_served", read_rids)
    for shard in sharded.shards:
        replica_set = shard.replica_set
        rec.wrap(replica_set, "apply_plan", "replicate.apply_plan")
        rec.wrap(replica_set, "ship_record", "replicate.ship_record")
        rec.wrap(replica_set, "get_served", "replicate.get_served")
        serving = replica_set.primary.serving
        rec.wrap(serving, "apply_plan", "core.updates.apply_plan")
        rec.wrap(serving, "get_served", "materialize.get")
        rec.wrap(
            serving.translator(CHART), "explain_batch",
            "core.updates.explain_batch",
        )
        view = serving.materialized(CHART)
        if view is not None:
            rec.wrap(view, "sync", "materialize.sync")
        for replica in replica_set.replicas:
            rec.wrap(replica, "receive", "replicate.receive")
            rec.wrap(replica, "drain", "replicate.drain", lambda: ())


def _wrap_batcher(rec: Recorder, stack: Stack, server: PenguinServer) -> None:
    """Batch wait = from ``MicroBatcher.submit`` until the folded batch
    reaches the facade; measured per request object."""
    batcher = server.batcher
    submitted: Dict[int, float] = {}
    submit = batcher.submit

    def timed_submit(name, request):
        submitted[id(request)] = time.perf_counter()
        return submit(name, request)

    batcher.submit = timed_submit
    session = server.session
    apply_batch = session.apply_plan_batch

    def timed_apply(name, requests, *args, **kwargs):
        now = time.perf_counter()
        requests = list(requests)
        for request in requests:
            at = submitted.pop(id(request), None)
            if at is not None:
                stack.batch_waits.append(now - at)
        return apply_batch(name, requests, *args, **kwargs)

    session.apply_plan_batch = timed_apply
