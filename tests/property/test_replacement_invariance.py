"""A replacement means the same whatever order its siblings come in.

Figure 4's components are *set*-valued, and outside the dependency
island a component the new instance leaves out is a reference it left
alone. Over seeded random members of the chain family, plain and
``adversarial=``, with permissive and with randomly restricted policies:

* an in-place replacement (no key changes) translates into the same
  operations with the same reasons — as a multiset: two changed siblings
  are emitted in the order the payload lists them — under any
  permutation of the new instance's sibling lists and with its unchanged
  outside-island components dropped; a rejection stays a rejection of
  the same class;
* a re-keying replacement pairs the tuples that matched no old key by
  position (``_align``'s rule, kept), so its *plan* depends on the order
  of the island's sibling lists but its effect does not: the database it
  leaves behind, and whether it is accepted at all, are the same.

What is *not* claimed: a re-key that also lists a referencing
peninsula's tuples in another order than ``old`` pairs them by position
like any leftover, and step 1 can then read the pair as a user key
change (DESIGN.md "VO-R is delta-driven" names the cure — pair leftovers
on the key's own part, Section 5.3's ``A_j`` — and why it is not in this
change). Nor is a peninsula tuple whose foreign key a re-key rewrites an
*unchanged* component: sending it inserts the re-homed tuple, leaving it
out retargets the stored one. The re-key property therefore keeps the
outside components and permutes island lists only.
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


def shapes(new, template, view_object, rng):
    """The payload as sent, permuted, without the outside components it
    leaves as ``template`` has them, and both."""
    bare = without_outside(new, view_object, unless_changed_from=template)
    return [
        copy.deepcopy(new),
        shuffled(new, rng),
        shuffled(new, rng),
        bare,
        shuffled(bare, rng),
    ]


def translated(translator, engine, new):
    """The plan as a multiset, or the class of the rejection."""
    try:
        plan = translator.explain_batch(engine, [Replacement((0,), new)]).plan
    except ReproError as rejection:
        return type(rejection).__name__
    return sorted(zip(map(repr, plan.operations), plan.reasons))


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
        outcomes = [
            translated(translator, engine, shape)
            for shape in shapes(new, template, view_object, rng)
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
    island = set(probe.analysis.island_nodes)
    effects = []
    for shape in [rehomed] + [shuffled(rehomed, rng, island) for _ in range(3)]:
        translator, engine = build(seed, adversarial, restricted)
        try:
            translator.apply(engine, Replacement((0,), shape))
        except ReproError as rejection:
            effects.append(type(rejection).__name__)
        else:
            effects.append(snapshot(engine))
    assert all(effect == effects[0] for effect in effects)
