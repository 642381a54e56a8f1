"""One write surface: a request validates, emits and records the same
thing whichever session carried it to the translator.

Every verb of :class:`~repro.penguin.ViewObjectSession` x every way a
request can end x every session shape, on memory and sqlite, compared
against a single ``Penguin``: the operations as a multiset, the final
database, the audit ``(op, outcome, items)`` records, the
``translations_total`` / ``translation_failures_total`` /
``explains_total`` / ``serve_writes_total`` deltas, the error, and the
number of ``verify`` spans (the plan check every translation ends
with). (How two
writers and a sick engine are treated is the sibling table,
``test_write_guard.py``.)

A sharded session applies a multi-item verb as one atomic batch *per
owner shard*, so two comparisons are made. A request whose items all
live on one shard (every single-item verb, every rejected scenario)
must match the single session *exactly*. An accepted batch spread over
owners must match it *up to the split*: same operations, same database,
same items per ``(op, outcome)``, and one commit, one counter bump and
one ``verify`` span per owner group.

A plan that crosses shards is a row too (``replace`` re-homing its
pivot to another shard's key): two-phase commit is a different protocol
with its own markers, but the write is counted like any other — one
``translations_total``, one ``plan_ops`` sample — and each participant
records its own sub-plan as a single-shard write does: one committed
record per participant, whose operations together are the reference's
plan as the router splits it, and each participant's replicas land that
record.

A partial request (Section 5's node-local operations on a resident
chart's ``VISIT``) is a row too: every session carries it through
``apply_plan_batch``, routed by its anchor like any other request.

A bare ``str`` object key is a row too: ``"100"`` was split into
``("1", "0", "0")`` and reported missing; every session now refuses it
with the same ``ViewObjectError``, audited like a missing key. The
``materialized`` session is a ``Penguin`` whose charts are all cached and
synced, so its single writes read their key anchors from the cache.

An empty batch is a row as well — ``insert_many`` / ``delete_many`` /
``apply_plan_batch`` of nothing, or a query-driven verb whose select
matches nothing: the empty set of operations is no update, so no session
journals, audits or counts anything and all of them return the empty
plan (a guarded facade still admits the request once — it cannot know
before it has run the verb). The translator's batch commit owns the
rule, so no session restates it (drift bug 17).

So is one whose select cannot be answered alike by every engine (an
ordering against a literal outside the attribute's domain, drift bug
16, or between two attributes of incomparable domains): the same ``QueryError`` on every session and backend, before any
engine is asked, and nothing deleted, audited or counted.
"""

import threading

import pytest

import repro.obs as obs
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
    Replacement,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.errors import QueryError, ReproError, ViewObjectError
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.relational.sqlite_engine import SqliteEngine
from repro.replicate import ReplicationConfig
from repro.serve.concurrent import ConcurrentPenguin
from repro.shard import ShardedPenguin, sharded_loader
from repro.shard.router import HashRouter, partition_plan
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
    rehome,
)
from tests.shard.test_sharded import OBJECT, RELATIONS, fresh_chart
from tests.conftest import batch_write, counter_total, histogram_total_count

PATIENTS = 8
RESIDENTS = range(100, 100 + PATIENTS)
ROUTERS = (HashRouter(2), HashRouter(4))


def owners(pid):
    return tuple(router.shard_of((pid,)) for router in ROUTERS)


def together(candidates, count):
    """``count`` pids one shard owns under every router in the table."""
    by_owner = {}
    for pid in candidates:
        group = by_owner.setdefault(owners(pid), [])
        group.append(pid)
        if len(group) == count:
            return group
    raise AssertionError("no co-located pids")  # pragma: no cover


def co_located(candidates, count, like):
    return [pid for pid in candidates if owners(pid) == owners(like)][:count]


# Residents and fresh keys that share one owner (so a rejected batch is
# one atomic unit in every session, and a key conflict is one the owner
# can see), and tagged charts loaded before the measurement starts:
# 'Same' on that owner, 'Spread' over several.
HOME = together(RESIDENTS, 2)
FRESH = co_located(range(50_000, 50_500), 2, HOME[0])
ABSENT = co_located(range(90_000, 90_500), 1, HOME[0])[0]
SAME = co_located(range(60_000, 60_500), 3, HOME[0])
# A fresh key no router in the table gives to SAME[0]'s owner: re-keying
# SAME[0] to it is a two-phase commit wherever there are two shards.
ELSEWHERE = next(
    pid for pid in range(95_000, 95_500)
    if all(far != near for far, near in zip(owners(pid), owners(SAME[0])))
)
SPREAD = list(range(70_000, 70_006))
NEW_SPREAD = list(range(81_000, 81_006))
for spread in (SPREAD, NEW_SPREAD):
    assert all(len({owners(pid)[i] for pid in spread}) > 1 for i in (0, 1))


def tagged(pid, tag):
    chart = fresh_chart(pid)
    chart["name"] = tag
    return chart


def renamed(chart):
    chart = dict(chart)
    chart["name"] = "Renamed"
    return chart


# -- the sessions -------------------------------------------------------------


def single(backend):
    graph = hospital_schema()
    session = Penguin(
        graph, backend=backend,
        journal=MemoryJournal(), audit=MemoryAuditLog(),
    )
    populate_hospital(session.engine, HospitalConfig(patients=PATIENTS))
    return session


def sharded(num_shards, replicas=0, miss_threshold=3):
    def build(backend, **kwargs):
        graph = hospital_schema()
        replication = None
        if replicas:
            replication = ReplicationConfig(replicas=replicas)
        engines = [
            SqliteEngine() if backend == "sqlite" else MemoryEngine()
            for _ in range(num_shards)
        ]
        session = ShardedPenguin(
            graph, "PATIENT", num_shards=num_shards, engines=engines,
            install=True, replication=replication, **kwargs,
        )
        if replicas:
            for shard in session.shards:
                shard.replica_set.detector.MISS_THRESHOLD = miss_threshold
        populate_hospital(
            sharded_loader(session), HospitalConfig(patients=PATIENTS)
        )
        return session

    return build


SESSIONS = {
    "penguin": single,
    "materialized": single,
    "concurrent": lambda backend: ConcurrentPenguin(single(backend)),
    "sharded-1": sharded(1),
    "sharded-4": sharded(4),
    "sharded-2x1-replica": sharded(2, replicas=1),
}


def prepared(kind, backend, policy, sessions=None, **kwargs):
    session = (sessions or SESSIONS)[kind](backend, **kwargs)
    session.register_object(patient_chart_object(session.graph))
    session.insert_many(
        OBJECT,
        [tagged(pid, "Same") for pid in SAME]
        + [tagged(pid, "Spread") for pid in SPREAD],
    )
    if policy is not None:
        session.set_policy(OBJECT, policy())
    if kind == "materialized":
        # Every chart cached and synced: a single write's key anchor is
        # read from the cache (MaterializedView.by_key).
        session.materialize(OBJECT)
        session.query(OBJECT)
    return session


def rows(session):
    if isinstance(session, ShardedPenguin):
        return {name: session.all_rows(name) for name in RELATIONS}
    return {
        name: sorted(session.engine.scan(name), key=repr) for name in RELATIONS
    }


class AuditTail:
    """The records a session's audit logs (one per shard's primary, and
    apart from them one per replica) gain from here on."""

    def __init__(self, session):
        self.replica_logs = []
        if isinstance(session, ShardedPenguin):
            self.logs = [shard.penguin.audit for shard in session.shards]
            self.replica_logs = [
                replica.audit
                for shard in session.shards
                for replica in shard.replicas
            ]
        else:
            self.logs = [session.translator(OBJECT).audit]
        self.marks = {
            id(log): len(log.records())
            for log in self.logs + self.replica_logs
        }

    def _gained(self, logs):
        return [
            record for log in logs for record in log.records()[self.marks[id(log)]:]
        ]

    def records(self):
        return self._gained(self.logs)

    def replica_records(self):
        return self._gained(self.replica_logs)


def replicas_of(session):
    replication = getattr(session, "replication", None)
    return 0 if replication is None else replication.replicas


# -- the verbs ------------------------------------------------------------------
#
# Each cell: (items one shard owns?, the call). A missing cell is a
# combination that does not exist (an insert has no key to miss, ...).

ACCEPTED, DUPLICATE, MISSING = "accepted", "duplicate-key", "missing-key"
BARE_STRING = "bare-string-key"
CROSS_SHARD = "accepted-across-shards"
POLICY, UNAUTHORIZED = "rejected-by-policy", "unauthorized-user"

VERBS = {
    "insert": {
        ACCEPTED: (True, lambda s: s.insert(OBJECT, fresh_chart(FRESH[0]))),
        DUPLICATE: (True, lambda s: s.insert(OBJECT, fresh_chart(HOME[0]))),
    },
    "delete": {
        ACCEPTED: (True, lambda s: s.delete(OBJECT, (HOME[0],))),
        MISSING: (True, lambda s: s.delete(OBJECT, (ABSENT,))),
        BARE_STRING: (True, lambda s: s.delete(OBJECT, str(HOME[0]))),
    },
    "replace": {
        ACCEPTED: (True, lambda s: s.replace(
            OBJECT, (SAME[0],), renamed(tagged(SAME[0], "Same"))
        )),
        DUPLICATE: (True, lambda s: s.replace(
            OBJECT, (SAME[0],), tagged(SAME[1], "Moved")
        )),
        MISSING: (True, lambda s: s.replace(
            OBJECT, (ABSENT,), fresh_chart(ABSENT)
        )),
        BARE_STRING: (True, lambda s: s.replace(
            OBJECT, str(SAME[0]), renamed(tagged(SAME[0], "Same"))
        )),
        CROSS_SHARD: (True, lambda s: s.replace(
            OBJECT, (SAME[0],), rehome(tagged(SAME[0], "Same"), ELSEWHERE)
        )),
    },
    "insert_many": {
        ACCEPTED: (False, lambda s: s.insert_many(
            OBJECT, [fresh_chart(pid) for pid in NEW_SPREAD]
        )),
        DUPLICATE: (True, lambda s: s.insert_many(
            OBJECT, [fresh_chart(FRESH[0]), fresh_chart(HOME[0])]
        )),
    },
    "delete_many": {
        ACCEPTED: (False, lambda s: s.delete_many(
            OBJECT, [(pid,) for pid in SPREAD]
        )),
        MISSING: (True, lambda s: s.delete_many(
            OBJECT, [(HOME[0],), (ABSENT,)]
        )),
    },
    "apply_plan_batch": {
        ACCEPTED: (False, lambda s: s.apply_plan_batch(OBJECT, [
            CompleteInsertion(s.coerce(OBJECT, fresh_chart(NEW_SPREAD[0]))),
            CompleteDeletion((SPREAD[1],)),
            Replacement(
                (SPREAD[2],),
                s.coerce(OBJECT, renamed(tagged(SPREAD[2], "Spread"))),
            ),
            CompleteInsertion(s.coerce(OBJECT, fresh_chart(NEW_SPREAD[3]))),
        ])),
        DUPLICATE: (True, lambda s: s.apply_plan_batch(OBJECT, [
            CompleteInsertion(s.coerce(OBJECT, fresh_chart(FRESH[0]))),
            CompleteInsertion(s.coerce(OBJECT, fresh_chart(HOME[1]))),
        ])),
        MISSING: (True, lambda s: s.apply_plan_batch(OBJECT, [
            CompleteDeletion((HOME[0],)),
            CompleteDeletion((ABSENT,)),
        ])),
    },
    "delete_where": {
        ACCEPTED: (False, lambda s: s.delete_where(OBJECT, "name = 'Spread'")),
    },
    "update_where": {
        ACCEPTED: (False, lambda s: s.update_where(
            OBJECT, "name = 'Spread'", renamed
        )),
        DUPLICATE: (True, lambda s: s.update_where(
            OBJECT, "name = 'Same'", lambda chart: tagged(HOME[0], "Moved")
        )),
    },
}

# Partial requests on the one VISIT of a resident 'Same' chart.
VISIT = dict(fresh_chart(SAME[0])["VISIT"][0])
for child in ("DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT", "PHYSICIAN"):
    del VISIT[child]
PARTIALS = {
    "partial_insert": lambda: PartialInsertion(
        (SAME[0],), "VISIT", dict(VISIT, visit_no=2, reason="follow-up")
    ),
    "partial_update": lambda: PartialUpdate(
        (SAME[0],), "VISIT", dict(VISIT), dict(VISIT, reason="revised")
    ),
    "partial_delete": lambda: PartialDeletion((SAME[0],), "VISIT", dict(VISIT)),
}
for verb, request in PARTIALS.items():
    VERBS[verb] = {
        ACCEPTED: (True, lambda s, request=request: s.apply_plan_batch(
            OBJECT, [request()]
        )),
    }

# Whatever the policy refuses is refused before any owner differs, but a
# sharded session stops at the first owner group: keep those on one shard.
ONE_SHARD = {
    "insert_many": lambda s: s.insert_many(
        OBJECT, [fresh_chart(pid) for pid in FRESH]
    ),
    "delete_many": lambda s: s.delete_many(OBJECT, [(pid,) for pid in HOME]),
    "apply_plan_batch": VERBS["apply_plan_batch"][MISSING][1],
    "delete_where": lambda s: s.delete_where(OBJECT, "name = 'Same'"),
    "update_where": lambda s: s.update_where(OBJECT, "name = 'Same'", renamed),
}
for verb, cells in VERBS.items():
    refused = (True, ONE_SHARD.get(verb, cells[ACCEPTED][1]))
    cells[POLICY] = cells[UNAUTHORIZED] = refused
SUCCEEDS = (ACCEPTED, CROSS_SHARD)

POLICIES = {
    POLICY: TranslatorPolicy.read_only,
    UNAUTHORIZED: lambda: TranslatorPolicy(authorized_users=["dba"]),
}

CASES = [
    (verb, scenario) for verb, cells in VERBS.items() for scenario in cells
]


class Observed:
    """What one session did with one request."""

    def __init__(self, kind, backend, scenario, call):
        session = prepared(kind, backend, POLICIES.get(scenario))
        tail = AuditTail(session)
        self.replicas = replicas_of(session)
        self.error = None
        self.operations = self.split = []
        try:
            with obs.use() as hub:
                try:
                    plan = call(session)
                    self.operations = sorted(
                        op.describe() for op in plan.operations
                    )
                    if isinstance(session, ShardedPenguin):
                        self.split = sorted(
                            op.describe()
                            for sub in partition_plan(
                                plan, session.placement, session.router
                            ).values()
                            for op in sub.operations
                        )
                except ReproError as exc:
                    self.error = (type(exc), str(exc))
                self.verifies = sum(
                    span.name == "verify"
                    for root in hub.tracer.take()
                    for span in root.iter_spans()
                )
                self.translations = counter_total(hub.metrics, "translations_total")
                self.failures = counter_total(hub.metrics, "translation_failures_total")
                self.plan_ops = histogram_total_count(hub.metrics, "plan_ops")
                self.explains = counter_total(hub.metrics, "explains_total")
                # What the primaries' guards counted (a replica stack
                # counts its own applies under its "replica" label).
                self.admissions = sum(
                    counter.value
                    for counter in hub.metrics.counters("serve_writes_total")
                    if "replica" not in dict(counter.labels)
                )
            self.rows = rows(session)
            self.audit = sorted(
                (record.op, record.state, record.items)
                for record in tail.records()
            )
            self.recorded = sorted(
                op.describe()
                for record in tail.records()
                if record.state == "committed"
                for op in record.plan().operations
            )
            self.replica_commits = sum(
                record.state == "committed"
                for record in tail.replica_records()
            )
        finally:
            if isinstance(session, ShardedPenguin):
                session.close()

    def items_by_outcome(self):
        totals = {}
        for op, outcome, items in self.audit:
            totals[op, outcome] = totals.get((op, outcome), 0) + items
        return totals


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("verb,scenario", CASES)
def test_every_session_does_what_a_single_penguin_does(
    verb, scenario, backend
):
    one_shard, call = VERBS[verb][scenario]
    reference = Observed("penguin", backend, scenario, call)
    assert (reference.error is None) == (scenario in SUCCEEDS)
    if scenario == BARE_STRING:
        assert reference.error[0] is ViewObjectError
        assert reference.audit == [(verb, "rolled_back", 1)]
    for kind in SESSIONS:
        seen = Observed(kind, backend, scenario, call)
        assert seen.error == reference.error, kind
        assert seen.rows == reference.rows, kind
        assert seen.operations == reference.operations, kind
        assert seen.failures == reference.failures, kind
        one_engine = kind in (
            "penguin", "materialized", "concurrent", "sharded-1"
        )
        two_phase = scenario == CROSS_SHARD and not one_engine
        exact = one_shard or one_engine
        commits = [record for record in seen.audit if record[1] == "committed"]
        if two_phase:  # one record per participant, its part of the plan
            assert seen.recorded == seen.split, kind
        if exact:
            assert seen.audit == reference.audit * (2 if two_phase else 1), kind
            # A plan found to cross shards is translated again under the
            # exclusive coordinator lock before the two-phase commit.
            translated = 2 if two_phase else 1
            assert seen.verifies == translated * reference.verifies, kind
        else:
            assert seen.items_by_outcome() == reference.items_by_outcome(), kind
            assert seen.verifies == len(commits) > 1, kind
        # A replica lands the shipped plan through the same commit step:
        # every commit once per replica — or, across shards, each of the
        # two participants' sub-plans once per replica of that shard.
        shipped = 2 if two_phase else len(commits)
        assert seen.replica_commits == shipped * seen.replicas, kind
        landed = (1 if two_phase else len(commits)) + seen.replica_commits
        assert seen.translations == seen.plan_ops == landed, kind
        # A write's translate half is not an explain; and the guard
        # counts a write once per admission: one per owner group (a
        # rejected request stops at its first), and for a two-phase
        # commit the owner's two — it is admitted again, as it is
        # translated again — plus the other participant's.
        assert seen.explains == 0, kind
        if kind in ("penguin", "materialized"):
            admitted = 0
        elif two_phase:
            admitted = 3
        else:
            admitted = max(1, len(commits))
        assert seen.admissions == admitted, kind


NOTHING = {
    "delete_where": lambda s: s.delete_where(OBJECT, "name = 'Nobody'"),
    "update_where": lambda s: s.update_where(OBJECT, "name = 'Nobody'", renamed),
    "insert_many": lambda s: s.insert_many(OBJECT, []),
    "delete_many": lambda s: s.delete_many(OBJECT, []),
    "apply_plan_batch": lambda s: s.apply_plan_batch(OBJECT, []),
}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("verb", sorted(NOTHING))
def test_a_select_matching_nothing_is_no_update_on_any_session(verb, backend):
    reference = Observed("penguin", backend, ACCEPTED, NOTHING[verb])
    for kind in SESSIONS:
        seen = Observed(kind, backend, ACCEPTED, NOTHING[verb])
        assert seen.error is None and seen.operations == [], kind
        assert seen.rows == reference.rows, kind
        assert seen.audit == [] and seen.replica_commits == 0, kind
        assert seen.translations == seen.failures == seen.plan_ops == 0, kind
        # One facade admits before it runs the verb; a sharded session
        # has no owner to admit an empty batch on.
        assert seen.admissions == (1 if kind == "concurrent" else 0), kind


ILL_TYPED = {
    "birth_year < 'x'":
        "cannot compare INTEGER attribute 'birth_year' with 'x'",
    "birth_year < name":
        "cannot compare INTEGER attribute 'birth_year' "
        "with TEXT attribute 'name'",
}
UNANSWERABLE = {
    "query": lambda text: lambda s: s.query(OBJECT, text),
    "delete_where": lambda text: lambda s: s.delete_where(OBJECT, text),
    "update_where": lambda text: lambda s: s.update_where(OBJECT, text, renamed),
}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("verb", sorted(UNANSWERABLE))
def test_an_ordering_no_engine_may_answer_is_refused_on_any_session(
    verb, backend
):
    """sqlite would rank every INTEGER below the text ``'x'`` (or below
    every ``name``) and delete all charts; Python would raise
    ``TypeError``. Neither is asked."""
    untouched = Observed("penguin", backend, ACCEPTED, NOTHING["delete_where"])
    for text, refusal in ILL_TYPED.items():
        for kind in SESSIONS:
            seen = Observed(kind, backend, ACCEPTED, UNANSWERABLE[verb](text))
            assert seen.error == (QueryError, refusal), (text, kind)
            assert seen.rows == untouched.rows, (text, kind)
            assert seen.audit == [] and seen.replica_commits == 0, kind
            assert seen.translations == seen.failures == seen.plan_ops == 0, kind


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_bare_string_key_is_refused_by_every_get(backend):
    """``"100"`` is neither ``(100,)`` nor ``("1", "0", "0")``: every
    session's ``get`` refuses it, as every write refuses it (the
    ``bare-string-key`` rows above, audited like a missing key)."""
    for kind in SESSIONS:
        session = prepared(kind, backend, None)
        try:
            assert session.get(OBJECT, (HOME[0],)) is not None, kind
            for key in (str(HOME[0]), str(HOME[0]).encode()):
                with pytest.raises(ViewObjectError, match="pass \\("):
                    session.get(OBJECT, key)
        finally:
            if isinstance(session, ShardedPenguin):
                session.close()


def test_rejection_counted_and_audited_on_the_owner_shard():
    """The sharded translate half is the overlay half, so a rejected
    write leaves what `Penguin` leaves: one failure, one record, on the
    shard that owns the key."""
    session = prepared("sharded-4", "memory", None)
    with obs.use() as hub:
        with pytest.raises(ReproError):
            session.insert(OBJECT, fresh_chart(HOME[0]))
        assert hub.metrics.counter(
            "translation_failures_total", op="insert"
        ).value == 1
    owner = session.owner_of(OBJECT, (HOME[0],))
    for shard in session.shards:
        rejected = [
            record for record in shard.penguin.audit.records()
            if record.state == "rolled_back"
        ]
        assert len(rejected) == (1 if shard.shard_id == owner else 0)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("verb", sorted(PARTIALS))
def test_a_partial_request_plans_alike_eager_and_batched(verb, backend):
    """``translator.apply`` (the eager half) and a batch write of
    that one request emit the same plan and leave the same database."""
    seen = []
    for door in (
        lambda t, engine, request: t.apply(engine, request, "update"),
        lambda t, engine, request: batch_write(t, engine, [request]),
    ):
        session = prepared("penguin", backend, None)
        plan = door(session.translator(OBJECT), session.engine, PARTIALS[verb]())
        seen.append((
            sorted(op.describe() for op in plan.operations), rows(session)
        ))
    assert seen[0] == seen[1]
    assert seen[0][0]


def test_explain_and_preview_leave_no_trace_of_a_rejection():
    session = prepared("penguin", "memory", None)
    translator = session.translator(OBJECT)
    tail = AuditTail(session)
    request = CompleteInsertion(session.coerce(OBJECT, fresh_chart(HOME[0])))
    with obs.use() as hub:
        for attempt in (
            lambda: translator.explain_batch(session.engine, [request]),
            lambda: session.explain_update(OBJECT, request),
        ):
            with pytest.raises(ReproError):
                attempt()
        assert counter_total(hub.metrics, "translation_failures_total") == 0
    assert tail.records() == []


def test_update_where_holds_the_write_lock_from_select_to_commit():
    """A writer arriving while ``update_where`` is between its select
    and its commit waits: the batch it commits is the one it selected."""
    serving = prepared("concurrent", "memory", None)
    rival = threading.Thread(
        target=serving.insert, args=(OBJECT, fresh_chart(FRESH[0]))
    )
    seen = []

    def transform(chart):
        if not seen:
            rival.start()
            rival.join(timeout=0.2)
        seen.append(rival.is_alive())
        return renamed(chart)

    tail = AuditTail(serving)
    serving.update_where(OBJECT, "name = 'Same'", transform)
    rival.join(timeout=10)
    assert seen == [True] * len(SAME)
    assert [record.op for record in tail.records()] == [
        "update_where", "insert"
    ]
    assert serving.get(OBJECT, (FRESH[0],)) is not None
