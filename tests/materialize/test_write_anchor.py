"""A single write reads its key anchor from the materialized view.

Section 5's VO-R and VO-CD start from the object's current instance.
When a session has materialized the object, ``Penguin._apply_one`` hands
its :class:`~repro.materialize.store.MaterializedView` to
``Translator.apply``, and the view answers the anchor from its cache —
only while nothing is pending, the one open transaction is the write's
own and nothing has been written in it yet. These tests pin:

* the mechanism, in engine reads: the cached, synced case saves exactly
  one assembly; every other case reads what the unmaterialized twin
  reads; no case syncs, fills or counts anything in the cache;
* that a materialized session writes exactly what its unmaterialized
  twin writes — plans, errors, journal and audit bytes — over seeded
  streams, with the cache equal to a recompute after every step;
* that the instance a ``get`` handed out is never changed by a write
  that started from it, whether the write commits, is rejected or
  crashes mid-translation.
"""

import collections
import copy
import random

import pytest

from repro.core.updates.operations import Replacement
from repro.errors import ReproError
from repro.obs.audit import FileAuditLog
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan, FaultRule, SimulatedCrash
from repro.relational.journal import FileJournal
from repro.relational.operations import UpdatePlan
from repro.serve.concurrent import ConcurrentPenguin
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
    rehome,
)
from tests.conftest import Heard, make_engine
from tests.core.updates.test_replacement_delta import (
    PATIENT,
    CountingEngine,
    deep_chart,
)

CHART = "patient_chart"
KEY = (PATIENT,)


def renamed(chart, name="Renamed"):
    chart = copy.deepcopy(chart)
    chart["name"] = name
    return chart


# -- the mechanism, in engine reads -------------------------------------------


def counting_session(materialized, warm=True):
    """A session over a ``CountingEngine`` holding the 61-tuple chart;
    materialized with the chart cached and synced when asked."""
    engine = CountingEngine()
    session = Penguin(hospital_schema(), engine=engine)
    populate_hospital(engine, HospitalConfig(patients=1))
    session.register_object(patient_chart_object(session.graph))
    session.insert(CHART, deep_chart())
    view = session.materialize(CHART) if materialized else None
    if warm:
        assert session.get(CHART, KEY) is not None
    return session, view


def assembly_reads():
    session, _ = counting_session(materialized=False, warm=False)
    session.engine.reads.clear()
    session.object(CHART).instantiator.by_key(session.engine, KEY)
    return len(session.engine.reads)


def write_replace(session):
    return session.replace(CHART, KEY, renamed(deep_chart()))


def write_delete(session):
    return session.delete(CHART, KEY)


def write_in_transaction(session):
    with session.transaction():
        return write_replace(session)


def write_batch(session):
    new = session.coerce(CHART, renamed(deep_chart()))
    return session.apply_plan_batch(CHART, [Replacement(KEY, new)])


def raw_replace(session):
    """A base write outside any translation: one pending record."""
    row = list(session.engine.get("PATIENT", KEY))
    row[1] = "Raw"
    session.engine.replace("PATIENT", KEY, tuple(row))


def cache_state(session, view):
    return tuple(view._instances), session.cache_stats(), view.staleness()


def measured(materialized, write, warm=True, before=None):
    """(plan text, engine reads, cache state before, after, records the
    write committed) of one write."""
    session, view = counting_session(materialized, warm)
    if before is not None:
        before(session)
    heard = Heard(session.engine)
    state = cache_state(session, view) if view is not None else None
    session.engine.reads.clear()
    plan = write(session)
    reads = len(session.engine.reads)
    after = cache_state(session, view) if view is not None else None
    return plan.describe(), reads, state, after, len(heard.take())


# name -> (the write, key cached first?, what runs before it)
SAVES = {
    "replace": (write_replace, True, None),
    "delete": (write_delete, True, None),
}
SAME = {
    "pending-record": (write_replace, True, raw_replace),
    "inside-a-transaction": (write_in_transaction, True, None),
    "uncached-key": (write_replace, False, None),
    "uncached-delete": (write_delete, False, None),
    "apply_plan_batch": (write_batch, True, None),
}


def check_untouched(state, after, committed):
    """The write's lookup left the cache as it was: same keys, same
    counters, and only the write's own records pending on top."""
    keys, stats, staleness = state
    assert after == (keys, stats, staleness + committed)


@pytest.mark.parametrize("case", sorted(SAVES))
def test_a_cached_synced_anchor_saves_exactly_one_assembly(case):
    write, warm, before = SAVES[case]
    plain_plan, plain_reads, *_ = measured(False, write, warm, before)
    plan, reads, state, after, committed = measured(True, write, warm, before)
    assert plan == plain_plan
    assert plain_reads - reads == assembly_reads() > 0
    check_untouched(state, after, committed)
    assert KEY in state[0]


@pytest.mark.parametrize("case", sorted(SAME))
def test_otherwise_the_anchor_is_assembled_as_without_a_cache(case):
    write, warm, before = SAME[case]
    plain_plan, plain_reads, *_ = measured(False, write, warm, before)
    plan, reads, state, after, committed = measured(True, write, warm, before)
    assert plan == plain_plan
    assert reads == plain_reads
    check_untouched(state, after, committed)
    assert (KEY in state[0]) == warm


def test_a_missing_key_is_refused_alike():
    plain, _ = counting_session(materialized=False)
    session, view = counting_session(materialized=True)
    state = cache_state(session, view)
    errors = []
    for each in (plain, session):
        with pytest.raises(ReproError) as caught:
            each.delete(CHART, (PATIENT + 1,))
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert "no instance with key" in errors[0][1]
    assert cache_state(session, view) == state


# -- a materialized session writes what its twin writes -----------------------


PATIENTS = range(100, 112)


class Twin:
    """One session of a pair: journal and audit log on files."""

    def __init__(self, backend, materialized, concurrent, directory, tag):
        self.journal_path = directory / f"{tag}.journal"
        self.audit_path = directory / f"{tag}.audit"
        penguin = Penguin(
            hospital_schema(),
            engine=make_engine(backend),
            journal=FileJournal(self.journal_path),
            audit=FileAuditLog(self.audit_path),
        )
        populate_hospital(
            penguin.engine, HospitalConfig(patients=len(PATIENTS))
        )
        penguin.register_object(patient_chart_object(penguin.graph))
        self.penguin = penguin
        self.view = penguin.materialize(CHART) if materialized else None
        self.session = ConcurrentPenguin(penguin) if concurrent else penguin

    def run(self, step):
        """What one step did: its plans' text and the instances it
        read, or the error it raised."""
        try:
            return "ok", [
                done.describe() if isinstance(done, UpdatePlan)
                else done.to_dict()
                for done in step(self)
            ]
        except ReproError as exc:
            return type(exc).__name__, str(exc)

    def check_cache(self):
        """Cache ≡ recompute for every cached instance, after a sync."""
        if self.view is None:
            return
        self.view.sync()
        instantiator = self.penguin.object(CHART).instantiator
        for key in tuple(self.view._instances):
            assert self.view.get(key) == instantiator.by_key(
                self.penguin.engine, key
            ), key

    def files(self):
        return self.journal_path.read_bytes(), self.audit_path.read_bytes()


KINDS = (
    "get", "get", "replace", "replace", "rekey", "clash", "missing",
    "delete-cached", "delete-uncached", "raw", "transaction",
)


def stream(seed, steps=60):
    """Seeded ``(kind, twin -> plans)`` steps over the resident charts.
    Payloads are built from the twin's engine, never from its cache."""
    rng = random.Random(seed)
    live = set(PATIENTS)
    fresh = iter(range(500, 600))

    def current(twin, pid):
        instance = twin.penguin.object(CHART).instantiator.by_key(
            twin.penguin.engine, (pid,)
        )
        return instance.to_dict()

    def get(pid):
        return lambda twin: [twin.session.get(CHART, (pid,))]

    def replace(pid, name):
        return lambda twin: [twin.session.replace(
            CHART, (pid,), renamed(current(twin, pid), name)
        )]

    def rekey(pid, new):
        return lambda twin: [twin.session.replace(
            CHART, (pid,), rehome(current(twin, pid), new)
        )]

    def missing(pid):
        return lambda twin: [twin.session.replace(
            CHART, (999,), rehome(current(twin, pid), 999)
        )]

    def delete(pid):
        return lambda twin: [twin.session.delete(CHART, (pid,))]

    def read_then_delete(pid):
        return lambda twin: get(pid)(twin) + delete(pid)(twin)

    def raw_then_replace(pid, name):
        # A cached anchor that missed the raw write would show the old
        # reason, and VO-R would emit a REPLACE VISIT for it.
        def step(twin):
            engine = twin.penguin.engine
            for row in engine.find_by("VISIT", ("patient_id",), (pid,))[:1]:
                engine.replace("VISIT", row[:2], row[:4] + (f"Raw {name}",))
            return replace(pid, name)(twin)

        return step

    def two_in_a_transaction(pid):
        def step(twin):
            with twin.penguin.transaction():
                chart = current(twin, pid)
                chart["VISIT"] = chart["VISIT"][1:]
                first = twin.session.replace(CHART, (pid,), chart)
                # The second write's anchor must show the first's effect:
                # the dropped visit stays dropped.
                second = twin.session.replace(
                    CHART, (pid,), renamed(current(twin, pid), "Twice")
                )
            return [first, second]

        return step

    read = set()  # pids some step read through the session: maybe cached
    for step_no in range(steps):
        pids = sorted(live)
        pid = rng.choice(pids)
        unread = sorted(live - read)
        kind = rng.choice(KINDS)
        if kind == "clash" and len(pids) < 2:
            kind = "transaction"
        if kind.startswith("delete") and len(pids) < 4:
            kind = "replace"
        if kind == "delete-uncached" and not unread:
            kind = "delete-cached"
        if kind == "get":
            read.add(pid)
            step = get(pid)
        elif kind == "replace":
            step = replace(pid, f"Name {step_no}")
        elif kind == "rekey":
            new = next(fresh)
            live.discard(pid)
            live.add(new)
            step = rekey(pid, new)
        elif kind == "clash":
            step = rekey(pid, rng.choice([p for p in pids if p != pid]))
        elif kind == "missing":
            step = rng.choice((delete(999), missing(pid)))
        elif kind == "delete-cached":
            # Read, so the key is cached and synced when the delete runs.
            live.discard(pid)
            step = read_then_delete(pid)
        elif kind == "delete-uncached":
            pid = rng.choice(unread)
            live.discard(pid)
            step = delete(pid)
        elif kind == "raw":
            step = raw_then_replace(pid, f"Step {step_no}")
        else:
            step = two_in_a_transaction(pid)
        yield kind, step


@pytest.mark.parametrize("concurrent", [False, True], ids=["penguin", "concurrent"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_materialized_session_writes_what_its_twin_writes(
    seed, backend, concurrent, tmp_path
):
    plain = Twin(backend, False, concurrent, tmp_path, "plain")
    cached = Twin(backend, True, concurrent, tmp_path, "cached")
    view, by_key = cached.view, cached.view.by_key
    from_cache = collections.Counter()

    def spy(engine, key):
        instance = by_key(engine, key)
        from_cache[instance is view._instances.get(tuple(key))] += 1
        return instance

    view.by_key = spy
    outcomes = collections.Counter()
    kinds = set()
    for step_no, (kind, step) in enumerate(stream(seed)):
        kinds.add(kind)
        seen = plain.run(step)
        assert cached.run(step) == seen, step_no
        outcomes[seen[0]] += 1
        cached.check_cache()
    assert cached.files() == plain.files()
    assert sorted(cached.penguin.engine.scan("VISIT")) == sorted(
        plain.penguin.engine.scan("VISIT")
    )
    # The stream commits and is refused, both.
    assert outcomes["ok"] and len(outcomes) > 1
    assert kinds == set(KINDS)
    # Write anchors came from the cache, and from the engine.
    assert from_cache[True] and from_cache[False]


# -- a handed-out instance is never changed --------------------------------------


def materialized_session(backend, engine=None):
    session = Penguin(
        hospital_schema(),
        engine=engine if engine is not None else make_engine(backend),
    )
    populate_hospital(session.engine, HospitalConfig(patients=4))
    session.register_object(patient_chart_object(session.graph))
    session.materialize(CHART)
    return session


def crashing_session(backend):
    """Loaded, then restarted on an engine that crashes at the second
    mutation from now."""
    base = materialized_session(backend).engine
    faulty = FaultInjectingEngine(base, FaultPlan().add(FaultRule("crash", ("mutation",), at=2)))
    session = Penguin(hospital_schema(), engine=faulty, install=False)
    session.register_object(patient_chart_object(session.graph))
    session.materialize(CHART)
    return session


def commit(session, kept):
    session.replace(CHART, (100,), renamed(kept, "Committed"))


def reject(session, kept):
    with pytest.raises(ReproError, match="prohibits this merge"):
        session.replace(CHART, (100,), rehome(kept, 101))


def delete(session, kept):
    session.delete(CHART, (100,))


def crash(session, kept):
    new = renamed(kept, "Crashed")
    for visit in new["VISIT"]:
        visit["reason"] = "crashed"
    with pytest.raises(SimulatedCrash):
        session.replace(CHART, (100,), new)


WRITES = {"commit": commit, "reject": reject, "delete": delete, "crash": crash}


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_handed_out_instance_is_never_mutated(write, backend):
    if write == "crash":
        session = crashing_session(backend)
    else:
        session = materialized_session(backend)
    instance = session.get(CHART, (100,))
    snapshot = copy.deepcopy(instance.to_dict())
    WRITES[write](session, instance.to_dict())
    assert instance.to_dict() == snapshot
    if write == "commit":
        assert session.get(CHART, (100,)).to_dict()["name"] == "Committed"
