"""One write guard: isolation and health are rows of the parity table.

Section 5's algorithms read the database to decide, so a plan is the
translator's plan only for the state it was translated against. Every
guarded session therefore admits a write once, *before* its translate
half, and keeps the shard's other writers out until it commits
(DESIGN.md "One guard"). Each row below forces the interleaving that
used to slip between a sharded write's translate half and its landing —
writer 1 is parked on the fault surface's yield point past its translate
half, writer 2 is started and must be queued on the guard, its own
translate half not begun — and then compares the errors, the
final database, the audit ``(op, outcome)`` sequence and
``check_integrity()`` with the serial order on a single ``Penguin``.

The health rows hold the other half of the guard: an engine fault in
the translate half reaches the breaker, a degraded shard refuses before
it reads its engine, a failover inside a write lets nobody past it, and
a probe admitted for a two-phase participant reports its outcome.
"""

import random
import sys
import threading
import time

import pytest

import repro.obs as obs
from repro.errors import (
    DegradedServiceError,
    PrimaryDownError,
    ReplicationQuorumError,
    TransientEngineError,
    UpdateError,
)
from repro.relational.faults import (
    READ_OPS,
    FaultHook,
    FaultInjectingEngine,
    FaultPlan,
    FaultRule,
    SecondOperation,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.concurrent import ConcurrentPenguin
from repro.shard import ShardedPenguin
from tests.integration.test_session_parity import (
    ELSEWHERE,
    FRESH,
    SAME,
    AuditTail,
    prepared,
    renamed,
    rows,
    sharded,
    single,
    tagged,
)
from repro.workloads.hospital import rehome
from tests.shard.test_sharded import OBJECT, fresh_chart

pytestmark = pytest.mark.timeout(120)

GUARDED = {
    "penguin": single,
    "concurrent": lambda backend: ConcurrentPenguin(single(backend)),
    "sharded": sharded(2),
    # Two replicas, so a quorum of one survives a promotion.
    "sharded-replicated": sharded(2, replicas=2, miss_threshold=1),
}
SESSIONS = [kind for kind in GUARDED if kind != "penguin"]
SHARDED = [kind for kind in SESSIONS if kind != "concurrent"]


def guarded(kind, backend, **kwargs):
    return prepared(kind, backend, None, GUARDED, **kwargs)


@pytest.fixture
def closing():
    sessions = []
    yield sessions.append
    for session in sessions:
        if isinstance(session, ShardedPenguin):
            session.close()


class Race:
    """Writer 1 runs on this thread. Where it first reaches the yield
    point past its translate half — ``translated`` on a sharded session;
    on a facade over one engine its first engine read, which is inside
    the eager translate — writer 2 is started and writer 1 held until
    writer 2 has finished *or is queued on the write guard* (read off
    the guard, not slept for); it must be queued. ``started``: thread
    names in the order their translate halves were reached."""

    def __init__(self, session, second, meanwhile=None):
        self.session, self.meanwhile = session, meanwhile
        self.started = []
        self.rival = None
        self.second = second
        hook = FaultHook(FaultPlan().add(
            FaultRule("call", ("translated", "read"), action=self.reached)
        ))
        if isinstance(session, ShardedPenguin):
            session.failpoint = hook
        else:
            penguin = session.penguin
            penguin.engine = FaultInjectingEngine(penguin.engine, hook)

    def reached(self, point, shard):
        name = threading.current_thread().name
        if name not in self.started:
            self.started.append(name)
            self.beside()

    def beside(self):
        """Start writer 2 (once) beside the writer on this thread."""
        if self.rival is None:
            self.rival = SecondOperation(
                lambda: outcome_of(self.second, self.session),
                lambda: self.session.queued,
            )
            self.rival("beside", None)
            if self.meanwhile is not None:
                self.meanwhile()

    def run(self, first):
        """Both outcomes; writer 2 must have been held back — alive, its
        translate half not begun — until writer 1 was through."""
        outcomes = outcome_of(first, self.session), self.rival.join()
        assert self.rival.held_back, "the second writer translated beside the first"
        assert self.started[0] == threading.current_thread().name
        return outcomes


def outcome_of(call, session):
    try:
        call(session)
    except Exception as exc:  # noqa: BLE001 - the outcome is the row
        return type(exc), str(exc)
    return None


class Seen:
    """What a session holds after the two writes."""

    def __init__(self, session, tail, outcomes):
        self.outcomes = outcomes
        self.rows = rows(session)
        self.audit = [(record.op, record.state) for record in tail.records()]
        self.violations = session.check_integrity()

    def __eq__(self, other):
        return vars(self) == vars(other)

    def __repr__(self):
        return f"Seen({self.outcomes}, {self.audit}, {self.violations})"


def serially(backend, first, second):
    session = guarded("penguin", backend)
    tail = AuditTail(session)
    outcomes = outcome_of(first, session), outcome_of(second, session)
    seen = Seen(session, tail, outcomes)
    assert seen.violations == []
    return seen


def delete_chart(session):
    session.delete(OBJECT, (SAME[0],))


def replace_adding_a_visit(session):
    chart = fresh_chart(SAME[0], visits=2)
    chart["name"] = "Same"
    session.replace(OBJECT, (SAME[0],), chart)


def insert_chart(session):
    session.insert(OBJECT, fresh_chart(FRESH[0]))


WRITER_PAIRS = {
    # (a) the parent let the replace translate and land between the
    # delete's two critical sections: VISIT (pid, 2) outlived PATIENT.
    "delete-beside-replace": (delete_chart, replace_adding_a_visit),
    # (b) the loser is rejected by *translation* (VO-CI: the tuple
    # exists), not by the engine's duplicate-key check on landing.
    "insert-beside-insert": (insert_chart, insert_chart),
}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("kind", SESSIONS)
@pytest.mark.parametrize("pair", sorted(WRITER_PAIRS))
def test_two_writers_on_one_key_end_as_the_serial_order(
    pair, kind, backend, closing
):
    first, second = WRITER_PAIRS[pair]
    reference = serially(backend, first, second)
    assert reference.outcomes[0] is None
    assert issubclass(reference.outcomes[1][0], UpdateError)
    session = guarded(kind, backend)
    closing(session)
    tail = AuditTail(session)
    outcomes = Race(session, second).run(first)
    assert Seen(session, tail, outcomes) == reference


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("kind", SESSIONS)
def test_update_where_loses_no_update(kind, backend, closing):
    """(c) A query-driven verb holds its session from select to commit:
    a ``replace`` arriving in between waits, so the snapshot
    ``update_where`` writes back is never stale."""
    reborn = renamed(tagged(SAME[0], "Same"))
    reborn["birth_year"] = 1901

    def replace_chart(session):
        session.replace(OBJECT, (SAME[0],), reborn)

    def update_where(transform):
        return lambda session: session.update_where(
            OBJECT, "name = 'Same'", transform
        )

    reference = serially(backend, update_where(renamed), replace_chart)
    assert reference.outcomes == (None, None)
    session = guarded(kind, backend)
    closing(session)
    tail = AuditTail(session)
    race = Race(session, replace_chart)

    def parking(chart):
        race.beside()  # selected, not yet translated
        return renamed(chart)

    outcomes = race.run(update_where(parking))
    assert Seen(session, tail, outcomes) == reference
    assert session.get(OBJECT, (SAME[0],)).to_dict()["birth_year"] == 1901


@pytest.mark.parametrize("kind", SESSIONS)
def test_many_writers_on_three_keys_never_orphan_a_tuple(kind, closing):
    """Unforced: more writers than cores deleting, re-inserting and
    replacing (with a second visit) the same three charts for a second,
    under a short switch interval. Whatever the schedule, the database
    stays valid and every loser lost to *translation*."""
    session = guarded(kind, "memory")
    closing(session)
    refusals = []

    def writer(seed):
        rng = random.Random(seed)
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            pid = rng.choice(SAME)
            write = rng.choice((
                lambda: session.delete(OBJECT, (pid,)),
                lambda: session.insert(OBJECT, fresh_chart(pid)),
                lambda: session.replace(
                    OBJECT, (pid,), fresh_chart(pid, visits=2)
                ),
            ))
            try:
                write()
            except Exception as exc:  # noqa: BLE001 - classified below
                refusals.append(exc)

    threads = [
        threading.Thread(target=writer, args=(seed,), daemon=True)
        for seed in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert session.check_integrity() == []
    assert [exc for exc in refusals if not isinstance(exc, UpdateError)] == []


# -- health ---------------------------------------------------------------------


def wrap_engines(session):
    """Put a (so far fault-free) fault injector under every primary."""
    if isinstance(session, ShardedPenguin):
        penguins = [shard.penguin for shard in session.shards]
    else:
        penguins = [session.penguin]
    for penguin in penguins:
        penguin.engine = FaultInjectingEngine(penguin.engine)
    return [penguin.engine for penguin in penguins]


def breaker_for(session, pid):
    if isinstance(session, ShardedPenguin):
        owner = session.owner_of(OBJECT, (pid,))
        return session.shard(owner).serving.breaker
    return session.breaker


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_read_faults_in_the_translate_half_reach_the_breaker(backend, closing):
    """(d) Eight writes against engines whose reads fail: the same
    errors and the same breaker on every session — three faults open it,
    then it fails fast and lets every fourth request probe."""
    seen = {}
    for kind in SESSIONS:
        session = guarded(kind, backend)
        closing(session)
        for engine in wrap_engines(session):
            engine.plan.transient_rate(1.0, ("read",))
        errors = [
            outcome_of(
                lambda s: s.insert_many(OBJECT, [fresh_chart(FRESH[0])]),
                session,
            )[0]
            for _ in range(8)
        ]
        seen[kind] = errors, breaker_for(session, FRESH[0]).as_dict()
    fault, refusal = TransientEngineError, DegradedServiceError
    errors, health = seen["concurrent"]
    assert errors == [fault] * 3 + [refusal] * 3 + [fault, refusal]
    assert (health["opened"], health["failures"], health["refusals"]) == (1, 4, 4)
    assert all(other == seen["concurrent"] for other in seen.values()), seen


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("kind", SESSIONS)
def test_a_degraded_shard_refuses_before_it_reads_its_engine(
    kind, backend, closing
):
    """(e)"""
    session = guarded(kind, backend)
    closing(session)
    engines = wrap_engines(session)
    breaker = breaker_for(session, FRESH[0])
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    tail = AuditTail(session)
    with pytest.raises(DegradedServiceError):
        session.insert(OBJECT, fresh_chart(FRESH[0]))
    reads = sum(
        engine.operation_count(op) for engine in engines for op in READ_OPS
    )
    assert reads == 0
    assert [(r.op, r.state) for r in tail.records()] == [
        ("insert", "degraded_rejected")
    ]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_failover_inside_a_write_lets_nobody_past_it(backend, closing):
    """(f) The primary dies while writer 1 is translating and writer 2
    is queued: the serialiser is the shard's, not the dead primary's, so
    writer 1 fails over and lands, then writer 2 — no deadlock, in
    order, on the promoted stack."""
    session = guarded("sharded-replicated", backend)
    closing(session)
    replica_set = session.shard(
        session.owner_of(OBJECT, (FRESH[0],))
    ).replica_set
    doomed = replica_set.primary
    race = Race(
        session,
        lambda s: s.insert(OBJECT, fresh_chart(FRESH[1])),
        meanwhile=doomed.kill,
    )
    assert race.run(insert_chart) == (None, None)
    assert race.started == [threading.current_thread().name, "second"]
    assert replica_set.failovers == 1 and replica_set.primary is not doomed
    landed = [
        record.plan().operations[0].values[0]
        for record in replica_set.primary.audit.records()[-2:]
    ]
    assert landed == FRESH[:2]
    for pid in FRESH[:2]:
        assert session.get(OBJECT, (pid,)) is not None
    assert session.check_integrity() == []


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_retry_after_the_primary_died_is_not_translated_on_its_corpse(
    backend, closing
):
    """The primary commits, dies before it ships, and the client — who
    saw an error — retries. Admission finds the live primary *first*, so
    the retry is translated against the promoted stack (which never got
    the write) and lands; translated on the dead one it was rejected as
    a duplicate of a tuple no reader can see."""
    session = guarded("sharded-replicated", backend)
    closing(session)
    replica_set = session.shard(
        session.owner_of(OBJECT, (FRESH[0],))
    ).replica_set
    doomed = replica_set.primary

    replica_set.failpoint = FaultHook(
        FaultPlan().call_at("pre_ship", lambda point, shard: doomed.kill())
    )
    assert outcome_of(insert_chart, session)[0] is PrimaryDownError
    assert doomed.engine.get("PATIENT", (FRESH[0],)) is not None
    assert outcome_of(insert_chart, session) is None
    assert replica_set.primary is not doomed
    assert session.get(OBJECT, (FRESH[0],)) is not None
    assert session.check_integrity() == []


def rehoming(session):
    session.replace(
        OBJECT, (SAME[0],), rehome(tagged(SAME[0], "Same"), ELSEWHERE)
    )


def two_phase_target(kind, backend, closing, probe_interval):
    """A 2-shard session whose re-homing target shard is degraded."""
    session = guarded(kind, backend)
    closing(session)
    for shard in session.shards:
        shard.serving.breaker = CircuitBreaker(1, probe_interval)
    target = session.shard(session.owner_of(OBJECT, (ELSEWHERE,)))
    target.serving.breaker.record_failure()
    assert target.serving.breaker.degraded
    return session, target


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("kind", SHARDED)
def test_a_probe_admitted_for_a_2pc_participant_closes_its_breaker(
    kind, backend, closing
):
    """(g)"""
    session, target = two_phase_target(kind, backend, closing, 1)
    rehoming(session)
    health = target.serving.breaker.as_dict()
    assert (health["state"], health["probes"], health["closed"]) == (
        "healthy", 1, 1
    )
    assert session.get(OBJECT, (ELSEWHERE,)) is not None


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("kind", SHARDED)
def test_a_failed_2pc_probe_keeps_its_breaker_open(kind, backend, closing):
    session, target = two_phase_target(kind, backend, closing, 1)
    before = rows(session)
    target.penguin.engine = FaultInjectingEngine(target.penguin.engine)
    target.penguin.engine.plan.transient_rate(1.0, ("mutation",))
    with pytest.raises(TransientEngineError):
        rehoming(session)
    health = target.serving.breaker.as_dict()
    assert (health["state"], health["failures"]) == ("degraded", 2)
    assert rows(session) == before


@pytest.mark.parametrize("kind", SHARDED)
def test_a_degraded_2pc_participant_refuses_through_the_same_guard(
    kind, closing
):
    session, target = two_phase_target(kind, "memory", closing, 100)
    before = rows(session)
    tail = AuditTail(session)
    with pytest.raises(DegradedServiceError):
        rehoming(session)
    assert rows(session) == before
    assert ("replace", "degraded_rejected") in [
        (record.op, record.state) for record in tail.records()
    ]
    assert target.serving.breaker.refusals == 1


def test_cross_shard_quorum_refusal_is_counted_like_the_fast_path(closing):
    session = guarded("sharded-replicated", "memory")
    closing(session)
    target = session.shard(session.owner_of(OBJECT, (ELSEWHERE,)))
    for replica in target.replicas:
        target.replica_set.link(replica.name).wedge()
    before = rows(session)
    with obs.use() as hub:
        with pytest.raises(ReplicationQuorumError):
            rehoming(session)
        assert hub.metrics.counter(
            "replication_refused_total",
            shard=str(target.shard_id), reason="quorum_unreachable",
        ).value == 1
    assert rows(session) == before
