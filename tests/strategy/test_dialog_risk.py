"""Dialog-layer properties of the risk report: same answers produce a
byte-identical report, and the hospital workload's reachable risk
levels are pinned by golden transcripts.

To regenerate the fixtures after an intentional checker change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/strategy/test_dialog_risk.py
"""

import os
import random
from pathlib import Path

import pytest

from repro.core.updates.policy import TranslatorPolicy
from repro.dialog.answers import CallableAnswers, ConstantAnswers, MappingAnswers
from repro.penguin import Penguin
from repro.strategy import RiskLevel, StrategyWarning
from repro.workloads.hospital import hospital_schema, patient_chart_object
from tests.strategy.test_checks import codes

pytestmark = pytest.mark.strategy

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))

READ_ONLY_ANSWERS = {
    "insertion.allowed": False,
    "deletion.allowed": False,
    "replacement.allowed": False,
}


def standard_answers(question):
    """The sensible DBA: yes to everything except merge-on-conflict."""
    return "merge_on_conflict" not in question.qid


def check_golden(name, actual):
    path = GOLDEN_DIR / name
    if REGEN:
        path.write_text(actual + "\n")
        pytest.skip(f"regenerated {name}")
    expected = path.read_text().rstrip("\n")
    assert actual == expected, (
        f"{name} drifted from the committed fixture; if the change is "
        f"intentional, regenerate with REGEN_GOLDEN=1"
    )


def hospital_session():
    graph = hospital_schema()
    session = Penguin(graph)
    session.register_object(patient_chart_object(graph))
    return session


def dialog_report(answers):
    session = hospital_session()
    translator, _ = session.choose_translator("patient_chart", answers)
    return translator.risk()


class TestDialogDeterminism:
    def seeded_answers(self, seed):
        rng = random.Random(seed)
        return CallableAnswers(lambda question: rng.random() < 0.8)

    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
    def test_same_answers_byte_identical_report(self, seed):
        one = dialog_report(self.seeded_answers(seed))
        two = dialog_report(self.seeded_answers(seed))
        assert one.render() == two.render()
        assert one.to_dict() == two.to_dict()

    def test_report_travels_through_explain_dict(self):
        report = dialog_report(ConstantAnswers(True))
        session = hospital_session()
        translator, _ = session.choose_translator(
            "patient_chart", ConstantAnswers(True)
        )
        assert translator.risk().to_dict() == report.to_dict()


class TestHospitalGoldenTranscripts:
    """One pinned transcript per dialog-reachable risk level."""

    def test_safe_is_unreachable_for_hospital(self):
        # WARD always needs skeleton support the default completer
        # cannot supply, so no answer set reaches SAFE: the floor for
        # a writable patient_chart translator is MEDIUM.
        report = dialog_report(CallableAnswers(standard_answers))
        assert report.level >= RiskLevel.MEDIUM

    def test_low_read_only(self):
        report = dialog_report(MappingAnswers(READ_ONLY_ANSWERS, default=True))
        assert report.level is RiskLevel.LOW
        check_golden("hospital_risk_low.txt", report.render())

    def test_medium_standard_configuration(self):
        report = dialog_report(CallableAnswers(standard_answers))
        assert report.level is RiskLevel.MEDIUM
        check_golden("hospital_risk_medium.txt", report.render())

    def test_high_all_yes_enables_merge_side_effects(self):
        report = dialog_report(ConstantAnswers(True))
        assert report.level is RiskLevel.HIGH
        assert "replacement.merge-side-effects" in codes(report)
        check_golden("hospital_risk_high.txt", report.render())

    def test_high_key_replacement_without_db_support(self):
        answers = CallableAnswers(
            lambda q: "merge_on_conflict" not in q.qid
            and "db_key_replace" not in q.qid
        )
        report = dialog_report(answers)
        assert report.level is RiskLevel.HIGH
        assert "replacement.key-never-translatable" in codes(report)

    def test_critical_needs_a_programmatic_definition(self):
        # The dialog never offers a configuration the translator cannot
        # execute; CRITICAL is only reachable by hand-building a view
        # that projects out a non-nullable pivot attribute — exactly
        # the hole the strictness knob closes.
        from repro.core.view_object import define_view_object

        graph = hospital_schema()
        visit_summary = define_view_object(
            graph,
            "visit_summary",
            pivot="VISIT",
            selections={
                "VISIT": ["patient_id", "visit_no", "physician_id", "reason"]
            },
        )
        session = Penguin(graph)
        session.register_object(visit_summary)
        with pytest.warns(StrategyWarning):
            translator = session.set_policy(
                "visit_summary", TranslatorPolicy.permissive()
            )
        report = translator.risk()
        assert report.is_critical
        assert "insertion.completer-dead-end" in codes(report)
        check_golden("hospital_risk_critical.txt", report.render())
