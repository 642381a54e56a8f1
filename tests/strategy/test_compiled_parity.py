"""Compiled ≡ reference over the law harness's configurations.

Until the walk left ``src/`` this was the harness's ninth law
(``compiled-parity``). It never was a law of a *configuration* — no
policy can falsify it, only a bug in the compiled program can — so it
is a test here, over the same corpus the laws run on: ``chain_case``
(plain and adversarial) × ``random_policy``, plus the permissive policy
and the three canonical workloads. Every request must explain
identically — same render, or the same error class and message —
through the program as shipped and through
``tests/reference_translate.py``.
"""

import pytest

from repro.core.instance import build_instance
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.errors import ReproError
from repro.strategy.laws import (
    _Session,
    _mutable_pivot_attribute,
    chain_case,
    random_policy,
    synthesize_fresh_instance,
    workload_case,
)
from tests import reference_translate

pytestmark = pytest.mark.strategy

SEEDS = range(12)


def requests_of(session):
    """The requests the law compared: insert a synthesized fresh
    instance, delete the first resident one, mutate its pivot."""
    requests = []
    fresh = synthesize_fresh_instance(session)
    instance = session.first_instance()
    if fresh is not None:
        requests.append(("insert", CompleteInsertion(build_instance(session.view_object, fresh))))
    if instance is not None:
        requests.append(("delete", CompleteDeletion(instance)))
        attr = _mutable_pivot_attribute(session)
        if attr is not None:
            mutated = instance.to_dict()
            mutated[attr] = "strategy-law-mutation"
            requests.append(
                ("replace", Replacement(instance, build_instance(session.view_object, mutated)))
            )
    return requests


def explained(session, request):
    """Explain never mutates, so one session serves both sides."""
    try:
        return session.penguin.explain_update(session.name, request).render()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_parity(case, policy):
    session = _Session(case, policy)
    requests = requests_of(session)
    for op, request in requests:
        compiled = explained(session, request)
        with reference_translate.installed():
            reference = explained(session, request)
        assert compiled == reference, (
            f"{case.describe()}: compiled and reference disagree on {op}"
        )
    return len(requests)


@pytest.mark.parametrize("adversarial", [False, True], ids=["plain", "adversarial"])
def test_random_policies_on_chain_cases(adversarial):
    compared = 0
    for seed in SEEDS:
        case = chain_case(seed, adversarial=adversarial)
        _, view_object, _ = case.build()
        compared += assert_parity(case, random_policy(view_object, seed))
        compared += assert_parity(case, TranslatorPolicy.permissive())
    assert compared >= 2 * len(SEEDS)  # never vacuous


@pytest.mark.parametrize("workload", ["hospital", "university", "cad"])
def test_permissive_workloads(workload):
    assert assert_parity(workload_case(workload), TranslatorPolicy.permissive())
