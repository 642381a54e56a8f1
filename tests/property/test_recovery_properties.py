"""Property: crash anywhere in any plan, recovery leaves no torn state."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.relational.ddl import relation  # noqa: E402
from repro.relational.faults import (  # noqa: E402
    FaultInjectingEngine,
    FaultPlan,
    SimulatedCrash,
)
from repro.relational.journal import (  # noqa: E402
    ABORTED,
    recover,
)
from repro.relational.memory_engine import MemoryEngine  # noqa: E402
from repro.relational.operations import (  # noqa: E402
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)
from tests.journal_harness import RecordingJournal, apply_journaled, resolved  # noqa: E402

pytestmark = pytest.mark.chaos

LEFT = relation("LEFT").integer("id").text("val").key("id").build()
RIGHT = relation("RIGHT").integer("id").text("val").key("id").build()

SEED_KEYS = range(5)


def make_engine():
    engine = MemoryEngine()
    for schema in (LEFT, RIGHT):
        engine.create_relation(schema)
        for i in SEED_KEYS:
            engine.insert(schema.name, (i, f"seed-{i}"))
    return engine


@st.composite
def valid_plans(draw):
    """Plans that are valid to apply against the seeded two-relation DB.

    Keys are tracked per relation while drawing, so deletes and
    replaces always target live rows and inserts always use fresh keys
    — including key-changing replaces, which exercise the two-cell
    image path.
    """
    keys = {"LEFT": set(SEED_KEYS), "RIGHT": set(SEED_KEYS)}
    next_id = [100]
    plan = UpdatePlan()
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        name = draw(st.sampled_from(["LEFT", "RIGHT"]))
        kinds = ["insert"] + (["delete", "replace"] if keys[name] else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "insert":
            new = next_id[0]
            next_id[0] += 1
            keys[name].add(new)
            plan.add(Insert(name, (new, f"new-{new}")))
        elif kind == "delete":
            victim = draw(st.sampled_from(sorted(keys[name])))
            keys[name].discard(victim)
            plan.add(Delete(name, (victim,)))
        else:
            old = draw(st.sampled_from(sorted(keys[name])))
            if draw(st.booleans()):  # key-changing replace
                new = next_id[0]
                next_id[0] += 1
                keys[name].discard(old)
                keys[name].add(new)
                plan.add(Replace(name, (old,), (new, f"moved-{new}")))
            else:
                plan.add(Replace(name, (old,), (old, f"upd-{old}")))
    return plan


def snapshot(engine):
    return {name: set(engine.scan(name)) for name in engine.relation_names()}


@settings(max_examples=60, deadline=None)
@given(plan_and_k=valid_plans().flatmap(
    lambda plan: st.tuples(
        st.just(plan), st.integers(min_value=1, max_value=len(plan))
    )
))
def test_crash_anywhere_recovers_to_all_reverted(plan_and_k):
    plan, k = plan_and_k
    engine = make_engine()
    before = snapshot(engine)
    journal = RecordingJournal()
    faulty = FaultInjectingEngine(engine, FaultPlan().crash_at("mutation", at=k))

    with pytest.raises(SimulatedCrash):
        apply_journaled(faulty, journal, plan, atomic=False)

    report = recover(engine, journal)
    assert report.clean
    statuses = {e.state for e in journal.journaled()}
    assert len(statuses) == 1
    if statuses == {ABORTED}:
        assert snapshot(engine) == before
    else:
        # A plan whose net effect is a no-op on every journaled cell
        # (insert X then delete X) legitimately resolves as COMMITTED:
        # every cell already shows its after-image.
        entry = journal.journaled()[0]
        for (name, key), (_, after) in entry.images().items():
            assert engine.get(name, key) == after
    # Idempotent: a second recovery finds nothing to do.
    assert resolved(recover(engine, journal)) == 0


@settings(max_examples=30, deadline=None)
@given(plan=valid_plans())
def test_uninterrupted_plan_reaches_after_images(plan):
    engine = make_engine()
    journal = RecordingJournal()
    entry_id = apply_journaled(engine, journal, plan, atomic=False)
    (entry,) = journal.journaled()
    assert entry.id == entry_id
    for (name, key), (_, after) in entry.images().items():
        assert engine.get(name, key) == after
    assert resolved(recover(engine, journal)) == 0
