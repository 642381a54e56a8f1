"""Drive both halves of strategy validation and compare their verdicts.

The contract between the halves is one-directional: the static checker
may over-approximate (flag hazards the data never exercises), but every
configuration the law harness *falsifies* must carry a finding of
RiskLevel.HIGH or worse. ``validate_case`` runs both halves over one
case + policy and records whether that contract held; ``sweep`` ranges
it over the seeded chain-case corpus, which is what the CI smoke job
and ``python -m repro validate --sweep N`` execute.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.updates.policy import TranslatorPolicy
from repro.strategy.checks import check_strategy
from repro.strategy.laws import (
    StrategyCase,
    chain_case,
    random_policy,
    run_laws,
    workload_case,
)
from repro.strategy.risk import RiskLevel

__all__ = ["validate_workload", "sweep", "render_result"]

WORKLOADS = ("hospital", "university", "cad")


def validate_case(
    case: StrategyCase, policy: Optional[TranslatorPolicy] = None
) -> Dict[str, Any]:
    """Static report + law report + the agreement verdict for one case."""
    _, view_object, _ = case.build()
    policy = policy or TranslatorPolicy.permissive()
    report = check_strategy(view_object, policy)
    law_report = run_laws(case, policy)
    falsified = bool(law_report.falsified)
    flagged = report.level >= RiskLevel.HIGH
    return {
        "case": case.describe(),
        "object": view_object.name,
        "risk": report.to_dict(),
        "laws": law_report.to_dict(),
        "falsified": falsified,
        "agreement": (not falsified) or flagged,
        "_risk_report": report,
        "_law_report": law_report,
    }


def validate_workload(workload: str) -> Dict[str, Any]:
    """Validate one named workload's object end to end under the
    permissive policy."""
    return validate_case(workload_case(workload))


def sweep(
    count: int = 50, base_seed: int = 0, adversarial: bool = False
) -> Dict[str, Any]:
    """Run the chain-case corpus under seeded random policies.

    Each seed draws a different schema *and* a different policy, so the
    corpus ranges over the configuration space the dialog can reach
    (plus, with ``adversarial=True``, schemas it hopefully cannot).
    """
    results: List[Dict[str, Any]] = []
    disagreements: List[Dict[str, Any]] = []
    falsified = 0
    for seed in range(base_seed, base_seed + count):
        case = chain_case(seed, adversarial=adversarial)
        _, view_object, _ = case.build()
        policy = random_policy(view_object, seed)
        result = validate_case(case, policy)
        result.pop("_risk_report")
        result.pop("_law_report")
        results.append(result)
        if result["falsified"]:
            falsified += 1
        if not result["agreement"]:
            disagreements.append(result)
    return {
        "cases": count,
        "adversarial": adversarial,
        "falsified": falsified,
        "disagreements": len(disagreements),
        "disagreement_cases": disagreements,
        "results": results,
    }


def render_result(result: Dict[str, Any]) -> str:
    """A readable account of one ``validate_case`` outcome."""
    report = result["_risk_report"]
    law_report = result["_law_report"]
    lines = [report.render(), law_report.render()]
    if result["agreement"]:
        verdict = (
            "agreement: law falsification matched by a >=HIGH finding"
            if result["falsified"]
            else "agreement: no law falsified"
        )
    else:
        verdict = (
            "DISAGREEMENT: laws falsified but the checker reported "
            f"{report.level.value.upper()}"
        )
    lines.append(verdict)
    return "\n".join(lines)
