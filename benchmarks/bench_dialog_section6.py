"""Section 6: choosing a translator by dialog.

Regenerates the paper's replacement-dialog transcript verbatim, measures
the dialog's cost, and demonstrates the amortization claim: the dialog
runs once at definition time, then every update translates without
further interaction.
"""

import copy

import pytest

from repro.core.updates.operations import Replacement
from repro.core.updates.policy import TranslatorPolicy
from repro.dialog.answers import ConstantAnswers, MappingAnswers, ScriptedAnswers
from repro.dialog.drivers import (
    choose_translator,
    run_definition_dialog,
    run_replacement_dialog,
)
from repro.dialog.transcript import Transcript
from repro.errors import UpdateRejectedError

PAPER_ANSWERS = [
    True, True, True, False,
    True, True, True,
    True, True, True,
    True, True, False,
    True, True, True,
]


@pytest.mark.benchmark(group="dialog")
def test_section6_transcript_report(benchmark, omega):
    def run():
        policy = TranslatorPolicy()
        transcript = Transcript()
        run_replacement_dialog(
            omega, ScriptedAnswers(PAPER_ANSWERS), policy, transcript
        )
        return policy, transcript

    policy, transcript = benchmark(run)
    assert len(transcript) == 16
    assert not policy.for_relation("COURSES").allow_merge_on_key_conflict
    print()
    print("=== Section 6 dialog (regenerated, replacement portion) ===")
    print(transcript.render())


@pytest.mark.benchmark(group="dialog")
def test_bench_full_definition_dialog(benchmark, omega):
    policy, transcript = benchmark(
        run_definition_dialog, omega, ConstantAnswers(True)
    )
    assert policy.allow_replacement


@pytest.mark.benchmark(group="dialog")
def test_amortization_updates_after_dialog(benchmark, omega):
    """One dialog, then N translations: the per-update cost contains no
    dialog interaction (the paper's amortization argument)."""
    from benchmarks.conftest import build_university_engine

    translator, transcript = choose_translator(omega, ConstantAnswers(True))
    questions_asked = len(transcript)

    def setup():
        __, engine = build_university_engine()
        course_id = next(iter(engine.scan("COURSES")))[0]
        old = translator.instantiate(engine, (course_id,))
        new = copy.deepcopy(old.to_dict())
        new["title"] = "Amortized"
        return (engine, old, new), {}

    def run(engine, old, new):
        return translator.apply(engine, Replacement(old, new))

    plan = benchmark.pedantic(run, setup=setup, rounds=10)
    assert plan.count("replace") == 1
    assert len(transcript) == questions_asked  # no new questions


@pytest.mark.benchmark(group="dialog")
def test_restrictive_translator_rejects_ees_example(benchmark, omega):
    """The paper's closing example: answering <NO> for DEPARTMENT makes
    the EES345 replacement fail."""
    from benchmarks.conftest import build_university_engine

    translator, __ = choose_translator(
        omega, MappingAnswers({"modify.DEPARTMENT.allowed": False}, default=True)
    )

    def setup():
        __, engine = build_university_engine()
        course_id = next(
            v[0] for v in engine.scan("COURSES")
            if v[4] == "Computer Science"
        )
        old = translator.instantiate(engine, (course_id,))
        new = copy.deepcopy(old.to_dict())
        new["course_id"] = "EES345"
        new["dept_name"] = "Engineering Economic Systems"
        for dept in new.get("DEPARTMENT", []):
            dept["dept_name"] = "Engineering Economic Systems"
        for grade in new.get("GRADES", []):
            grade["course_id"] = "EES345"
        for entry in new.get("CURRICULUM", []):
            entry["course_id"] = "EES345"
        return (engine, old, new), {}

    def run(engine, old, new):
        try:
            translator.apply(engine, Replacement(old, new))
            return False
        except UpdateRejectedError:
            return True

    rejected = benchmark.pedantic(run, setup=setup, rounds=5)
    assert rejected
