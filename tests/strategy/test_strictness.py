"""The ``strictness`` knob: refuse/warn/off at definition time, and the
risk report's ride through ``explain()``."""

import warnings

import pytest

from repro.core.updates.operations import CompleteDeletion
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.core.updates.translator import Translator
from repro.errors import UnsafeTranslatorError
from repro.penguin import Penguin
from repro.relational.memory_engine import MemoryEngine
from repro.strategy import RiskLevel, StrategyWarning
from repro.workloads.synthetic import (
    chain_object,
    chain_schema,
    populate_chain,
)

pytestmark = pytest.mark.strategy


def critical_policy():
    # PENINSULA.k0 is a non-nullable key attribute: NULLIFY can never
    # be applied, which the policy layer used to accept silently.
    policy = TranslatorPolicy.permissive()
    policy.relations["PENINSULA"] = RelationPolicy(
        on_reference_delete=ReferenceRepair.NULLIFY
    )
    return policy


@pytest.fixture
def chain():
    graph = chain_schema(1)
    engine = MemoryEngine()
    graph.install(engine)
    populate_chain(engine, depth=1, roots=2, fanout=1)
    return graph, chain_object(graph, 1), engine


class TestStrictnessKnob:
    def test_refuse_raises_at_definition_time(self, chain):
        _, view_object, _ = chain
        with pytest.raises(UnsafeTranslatorError) as excinfo:
            Translator(
                view_object, policy=critical_policy(), strictness="refuse"
            )
        assert excinfo.value.report.is_critical
        assert "nullify" in str(excinfo.value).lower()

    def test_warn_emits_strategy_warning(self, chain):
        _, view_object, _ = chain
        with pytest.warns(StrategyWarning):
            translator = Translator(
                view_object, policy=critical_policy(), strictness="warn"
            )
        assert translator.risk().is_critical

    def test_warn_is_the_default(self, chain):
        _, view_object, _ = chain
        with pytest.warns(StrategyWarning):
            Translator(view_object, policy=critical_policy())

    def test_off_is_silent(self, chain):
        _, view_object, _ = chain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            translator = Translator(
                view_object, policy=critical_policy(), strictness="off"
            )
        assert translator.risk().is_critical  # still computable on demand

    def test_safe_policy_passes_refuse(self, chain):
        _, view_object, _ = chain
        translator = Translator(view_object, strictness="refuse")
        assert translator.risk().level < RiskLevel.CRITICAL

    def test_unknown_strictness_rejected(self, chain):
        _, view_object, _ = chain
        with pytest.raises(ValueError):
            Translator(view_object, strictness="paranoid")

    def test_no_critical_config_reaches_compiled_program(
        self, chain, monkeypatch
    ):
        """Acceptance: under refuse, the constructor raises before the
        program is compiled (or any plan can exist)."""
        import repro.core.updates.translator as translator_module

        compiled = []
        real = translator_module.CompiledProgram

        def counting(view_object, analysis):
            compiled.append(view_object.name)
            return real(view_object, analysis)

        monkeypatch.setattr(translator_module, "CompiledProgram", counting)
        _, view_object, _ = chain
        with pytest.raises(UnsafeTranslatorError):
            Translator(
                view_object, policy=critical_policy(), strictness="refuse"
            )
        assert compiled == []
        with pytest.warns(StrategyWarning):
            Translator(view_object, policy=critical_policy(), strictness="warn")
        assert compiled == [view_object.name]

    def test_penguin_threads_strictness(self, chain):
        graph, view_object, engine = chain
        session = Penguin(graph, engine=engine, install=False,
                          strictness="refuse")
        session.register_object(view_object)
        with pytest.raises(UnsafeTranslatorError):
            session.set_policy(view_object.name, critical_policy())

    def test_for_user_inherits_strictness_and_report(self, chain):
        _, view_object, _ = chain
        translator = Translator(view_object, strictness="off")
        report = translator.risk()
        bound = translator.for_user("alice")
        assert bound.strictness == "off"
        assert bound.risk() is report


class TestExplainCarriesRisk:
    def test_render_has_strategy_risk_section(self, chain):
        _, view_object, engine = chain
        translator = Translator(view_object, strictness="warn")
        instance = translator.instantiate(engine, (0,))
        explanation = translator.explain_batch(
            engine, [CompleteDeletion(instance)]
        )
        rendered = explanation.render()
        assert "strategy risk" in rendered
        assert translator.risk().level.value.upper() in rendered
        assert explanation.to_dict()["risk"] == translator.risk().to_dict()

    def test_off_translator_still_explains_risk(self, chain):
        _, view_object, engine = chain
        translator = Translator(view_object, strictness="off")
        instance = translator.instantiate(engine, (1,))
        explanation = translator.explain_batch(
            engine, [CompleteDeletion(instance)]
        )
        # strictness="off" defers the check, but explain() still
        # computes the report lazily — never "unchecked" here.
        assert "strategy risk" in explanation.render()

    def test_hospital_views_all_carry_risk_levels(self):
        """Acceptance: explain() carries a risk level for every
        hospital view bound through the session."""
        from repro.workloads.hospital import hospital_schema, patient_chart_object

        graph = hospital_schema()
        session = Penguin(graph)
        session.register_object(patient_chart_object(graph))
        summary = session.risk_summary()
        assert set(summary) == {"patient_chart"}
        assert summary["patient_chart"]["level"] in {
            level.value for level in RiskLevel
        }
        assert summary["patient_chart"]["findings"] >= 1
