"""Step 1's "user authorizations" check."""

import pytest

from repro.core.updates.operations import CompleteDeletion
from repro.core.updates.policy import TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.errors import LocalValidationError
from tests.journal_harness import audit_outcomes


@pytest.fixture
def restricted(omega):
    policy = TranslatorPolicy(authorized_users=["dba", "registrar"])
    return Translator(omega, policy=policy)


def any_course(engine):
    return next(iter(engine.scan("COURSES")))[0]


def test_open_policy_allows_anonymous(omega, university_engine):
    translator = Translator(omega)
    translator.apply(
        university_engine, CompleteDeletion((any_course(university_engine),))
    )


def test_unbound_user_rejected(restricted, university_engine):
    with pytest.raises(LocalValidationError, match="not authorized"):
        restricted.apply(
            university_engine,
            CompleteDeletion((any_course(university_engine),)),
        )


def test_unauthorized_user_rejected(restricted, university_engine):
    eve = restricted.for_user("eve")
    with pytest.raises(LocalValidationError, match="'eve'"):
        eve.apply(
            university_engine,
            CompleteDeletion((any_course(university_engine),)),
        )


def test_authorized_user_allowed(restricted, university_engine):
    registrar = restricted.for_user("registrar")
    cid = any_course(university_engine)
    registrar.apply(university_engine, CompleteDeletion((cid,)))
    assert university_engine.get("COURSES", (cid,)) is None


def test_rejection_happens_before_any_mutation(
    restricted, university_engine, university_graph
):
    before = {
        name: sorted(university_engine.scan(name))
        for name in university_graph.relation_names
    }
    with pytest.raises(LocalValidationError):
        restricted.for_user("eve").apply(
            university_engine,
            CompleteDeletion((any_course(university_engine),)),
        )
    after = {
        name: sorted(university_engine.scan(name))
        for name in university_graph.relation_names
    }
    assert after == before


def test_previews_also_gated(restricted, university_engine):
    with pytest.raises(LocalValidationError):
        restricted.for_user("eve").explain_batch(
            university_engine,
            [CompleteDeletion((any_course(university_engine),))],
        )


def test_binding_does_not_mutate_original(restricted):
    bound = restricted.for_user("dba")
    assert bound.user == "dba"
    assert restricted.user is None
    assert bound.policy is restricted.policy


def test_policy_authorizes():
    open_policy = TranslatorPolicy()
    assert open_policy.authorizes(None)
    assert open_policy.authorizes("anyone")
    closed = TranslatorPolicy(authorized_users=["a"])
    assert closed.authorizes("a")
    assert not closed.authorizes("b")
    assert not closed.authorizes(None)


# -- every entry point, not only the eager one ---------------------------------

def last_course(engine):
    return [values[0] for values in engine.scan("COURSES")][-1]


ENTRY_POINTS = {
    # A write's translate half: what the sharded path runs before apply_plan.
    "translate": lambda t, engine, request: t.explain_batch(
        engine, [request], op="delete"
    ),
    "explain": lambda t, engine, request: t.explain_batch(engine, [request]),
    "explain_batch": lambda t, engine, request: t.explain_batch(
        engine, [request, CompleteDeletion((last_course(engine),))]
    ),
    "apply_plan_batch": lambda t, engine, request: t.apply_plan_batch(
        engine, [request]
    ),
}


def snapshot(engine, graph):
    return {name: sorted(engine.scan(name)) for name in graph.relation_names}


@pytest.mark.parametrize("user", [None, "eve"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_translate_half_checks_authorization(
    restricted, university_engine, university_graph, entry, user
):
    request = CompleteDeletion((any_course(university_engine),))
    before = snapshot(university_engine, university_graph)
    with pytest.raises(LocalValidationError, match="not authorized"):
        ENTRY_POINTS[entry](restricted.for_user(user), university_engine, request)
    assert snapshot(university_engine, university_graph) == before
    # The same call by a listed user goes through.
    ENTRY_POINTS[entry](restricted.for_user("registrar"), university_engine, request)


def test_apply_plan_does_not_trust_its_caller(
    restricted, university_engine, university_graph
):
    """The flush half checks too: a plan obtained elsewhere (here: from
    an authorized user's translate) cannot be applied by anyone else."""
    cid = any_course(university_engine)
    plan = restricted.for_user("registrar").explain_batch(
        university_engine, [CompleteDeletion((cid,))]
    ).plan
    before = snapshot(university_engine, university_graph)
    with pytest.raises(LocalValidationError, match="'eve'"):
        restricted.for_user("eve").apply_plan(university_engine, plan)
    assert snapshot(university_engine, university_graph) == before
    restricted.for_user("registrar").apply_plan(university_engine, plan)
    assert university_engine.get("COURSES", (cid,)) is None


def test_penguin_and_sharded_penguin_reject_alike():
    """One policy naming authorized users, one anonymous insert: the
    single session and the sharded one (whose write path is explain_batch
    -> partition -> apply_plan) raise the same error class, audit the
    rejection as rolled back on the owner, and change nothing."""
    from repro.obs.audit import MemoryAuditLog
    from repro.penguin import Penguin
    from repro.shard import ShardedPenguin, sharded_loader
    from repro.workloads.hospital import (
        HospitalConfig,
        hospital_schema,
        patient_chart_object,
        populate_hospital,
    )

    chart = {
        "patient_id": 50_001,
        "name": "Anonymous",
        "birth_year": 1970,
        "ward_name": None,
        "VISIT": [],
    }

    def closed_policy():
        return TranslatorPolicy(authorized_users=["dba"])

    graph = hospital_schema()
    single = Penguin(graph, audit=MemoryAuditLog())
    populate_hospital(single.engine, HospitalConfig(patients=4))
    single.register_object(patient_chart_object(graph))
    single.set_policy("patient_chart", closed_policy())

    graph = hospital_schema()
    sharded = ShardedPenguin(graph, "PATIENT", num_shards=2)
    populate_hospital(sharded_loader(sharded), HospitalConfig(patients=4))
    sharded.register_object(patient_chart_object(graph))
    sharded.set_policy("patient_chart", closed_policy())

    def single_state():
        return snapshot(single.engine, single.graph)

    def sharded_state():
        return [snapshot(shard.engine, sharded.graph) for shard in sharded.shards]

    errors = []
    for session, state in ((single, single_state), (sharded, sharded_state)):
        before = state()
        with pytest.raises(LocalValidationError, match="not authorized") as caught:
            session.insert("patient_chart", dict(chart))
        errors.append((type(caught.value), str(caught.value)))
        assert state() == before
    assert errors[0] == errors[1]

    def outcomes(audit):
        return [(record.op, record.state) for record in audit.records()]

    assert outcomes(single.audit) == [("insert", "rolled_back")]
    owner = sharded.shard(sharded.owner_of("patient_chart", (50_001,)))
    assert outcomes(owner.penguin.audit) == [("insert", "rolled_back")]
    assert audit_outcomes(sharded) == [("insert", "rolled_back")]
