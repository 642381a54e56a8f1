"""A replacement means the same whatever order its siblings come in.

Figure 4's components are *set*-valued, and VO-R reads them as sets:
siblings pair by key, and the leftovers pair in key order on both sides
(``repro.core.instance.align_siblings``), so the plan cannot depend on
how a payload happens to list the members of a set. Over seeded random
members of the chain family, plain and ``adversarial=``, with
permissive and with randomly restricted policies, a replacement's
``explain_batch`` plan — operations, their order and their reasons — or
the class of its rejection is identical under any permutation of any
sibling list of ``new``:

* for in-place edits, also with their unchanged outside-island
  components left out;
* for a re-key of the pivot, whose effect — the database it leaves
  behind, or the class of its rejection — is then the same too. A re-key
  keeps its outside components: leaving out a peninsula tuple whose
  foreign key the re-key rewrites retargets the stored one, where
  sending it inserts the re-homed tuple.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.updates.operations import Replacement
from repro.core.updates.translator import Translator
from repro.errors import ReproError
from repro.relational.memory_engine import MemoryEngine
from repro.strategy.laws import random_policy
from repro.workloads.synthetic import random_chain_case
from tests.core.updates.test_compiled import (
    REHOMED_ROOT,
    nonkey_edits,
    rekey,
    shuffled,
    snapshot,
    without_outside,
)

cases = st.tuples(
    st.integers(min_value=0, max_value=100_000), st.booleans(), st.booleans()
)


def build(seed, adversarial, restricted):
    engine = MemoryEngine()
    _, view_object, _ = random_chain_case(engine, seed, adversarial)
    policy = random_policy(view_object, seed) if restricted else None
    return Translator(view_object, policy=policy, strictness="off"), engine


def translated(translator, engine, new):
    """The plan's operations and reasons in order, or the class of the
    rejection."""
    try:
        plan = translator.explain_batch(engine, [Replacement((0,), new)]).plan
    except ReproError as rejection:
        return type(rejection).__name__
    return list(zip(map(repr, plan.operations), plan.reasons))


@given(case=cases)
@settings(max_examples=60, deadline=None)
def test_in_place_replacement_is_order_invariant(case):
    seed, adversarial, restricted = case
    translator, engine = build(seed, adversarial, restricted)
    view_object = translator.view_object
    rng = random.Random(seed)
    template = translator.instantiate(engine, (0,)).to_dict()
    edits = dict(nonkey_edits(template, view_object))
    everywhere = template  # one tuple edited at every node at once
    for node_id in edits:
        everywhere = dict(nonkey_edits(everywhere, view_object))[node_id]
    for new in [template, everywhere, *edits.values()]:
        bare = without_outside(new, view_object, unless_changed_from=template)
        shapes = [new, shuffled(new, rng), shuffled(new, rng), bare]
        shapes.append(shuffled(bare, rng))
        outcomes = [
            translated(translator, engine, copy.deepcopy(shape)) for shape in shapes
        ]
        assert all(outcome == outcomes[0] for outcome in outcomes), outcomes


@given(case=cases)
@settings(max_examples=40, deadline=None)
def test_rekeying_replacement_has_an_order_invariant_effect(case):
    seed, adversarial, restricted = case
    rng = random.Random(seed)
    probe, engine = build(seed, adversarial, restricted)
    template = probe.instantiate(engine, (0,)).to_dict()
    rehomed = rekey(copy.deepcopy(template), REHOMED_ROOT)
    shapes = [rehomed] + [shuffled(rehomed, rng) for _ in range(3)]
    plans = [translated(probe, engine, copy.deepcopy(shape)) for shape in shapes]
    assert all(plan == plans[0] for plan in plans), plans
    effects = []
    for shape in shapes:
        translator, engine = build(seed, adversarial, restricted)
        try:
            translator.apply(engine, Replacement((0,), copy.deepcopy(shape)), "replace")
        except ReproError as rejection:
            effects.append(type(rejection).__name__)
        else:
            effects.append(snapshot(engine))
    assert all(effect == effects[0] for effect in effects)
