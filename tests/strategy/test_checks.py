"""Unit coverage for every finding code of the static strategy checker."""

import pytest

from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
)
from repro.core.view_object import define_view_object
from repro.relational.ddl import relation
from repro.relational.memory_engine import MemoryEngine
from repro.strategy import RiskLevel, check_strategy
from repro.strategy.laws import workload_case
from repro.structural.schema_graph import StructuralSchema
from repro.workloads.synthetic import (
    chain_object,
    chain_schema,
    chain_selections,
    random_chain_case,
)

pytestmark = pytest.mark.strategy


def codes(report):
    """The finding codes of ``report``, in its order."""
    return [finding.code for finding in report.findings]


def chain_view(depth=1, with_peninsula=True, with_lookup=True, **schema_kwargs):
    graph = chain_schema(depth, with_peninsula, with_lookup, **schema_kwargs)
    return graph, chain_object(graph, depth, with_peninsula, with_lookup)


def policy_with(**relations):
    policy = TranslatorPolicy.permissive()
    for name, relation_policy in relations.items():
        policy.relations[name] = relation_policy
    return policy


class TestGateFindings:
    def test_read_only_translator_is_flagged_low(self):
        _, view_object = chain_view()
        policy = TranslatorPolicy(
            allow_insertion=False,
            allow_deletion=False,
            allow_replacement=False,
        )
        report = check_strategy(view_object, policy)
        assert "gates.read-only" in codes(report)
        assert report.level >= RiskLevel.LOW


class TestInsertionFindings:
    def test_pivot_completer_dead_end_is_critical(self):
        _, view_object = chain_view(hidden_attr=True)
        report = check_strategy(view_object, TranslatorPolicy.permissive())
        findings = [
            f for f in report if f.code == "insertion.completer-dead-end"
        ]
        assert findings and findings[0].level is RiskLevel.CRITICAL
        assert findings[0].relation == "R0"
        assert "secret" in findings[0].message

    def test_non_pivot_island_dead_end_is_high(self):
        graph = StructuralSchema("deadend_child")
        graph.add_relation(
            relation("A").integer("a_id").key("a_id").build()
        )
        graph.add_relation(
            relation("B")
            .integer("a_id")
            .integer("b_id")
            .text("hidden")
            .text("note", nullable=True)
            .key("a_id", "b_id")
            .build()
        )
        graph.ownership("a_b", "A", "B", ["a_id"], ["a_id"])
        view_object = define_view_object(
            graph,
            "ab",
            pivot="A",
            selections={"A": ["a_id"], "B": ["a_id", "b_id", "note"]},
        )
        report = check_strategy(view_object, TranslatorPolicy.permissive())
        findings = [
            f for f in report if f.code == "insertion.completer-dead-end"
        ]
        assert findings and findings[0].level is RiskLevel.HIGH
        assert findings[0].relation == "B"

    def test_custom_completer_clears_dead_end(self):
        _, view_object = chain_view(hidden_attr=True)
        policy = TranslatorPolicy.permissive()
        policy.completer = lambda rel, schema, partial: dict(
            partial, secret="filled"
        )
        report = check_strategy(view_object, policy)
        assert "insertion.completer-dead-end" not in codes(report)

    def test_outside_relation_without_insert_is_medium(self):
        case = workload_case("university")
        _, view_object, _ = case.build()
        policy = policy_with(
            DEPARTMENT=RelationPolicy(can_insert=False)
        )
        report = check_strategy(view_object, policy)
        codes = {
            (f.code, f.relation): f.level for f in report
        }
        assert (
            codes[("insertion.outside-no-insert", "DEPARTMENT")]
            is RiskLevel.MEDIUM
        )

    def test_outside_relation_without_replace_is_low(self):
        case = workload_case("university")
        _, view_object, _ = case.build()
        policy = policy_with(
            DEPARTMENT=RelationPolicy(can_replace_existing=False)
        )
        report = check_strategy(view_object, policy)
        assert ("insertion.outside-no-replace") in codes(report)

    def test_skeleton_uncompletable_on_hospital_ward(self):
        case = workload_case("hospital")
        _, view_object, _ = case.build()
        report = check_strategy(view_object, TranslatorPolicy.permissive())
        findings = [
            f for f in report if f.code == "insertion.skeleton-uncompletable"
        ]
        assert [f.relation for f in findings] == ["WARD"]

    def test_skeleton_prohibited_when_support_insert_denied(self):
        case = workload_case("hospital")
        _, view_object, _ = case.build()
        policy = policy_with(WARD=RelationPolicy(can_insert=False))
        report = check_strategy(view_object, policy)
        findings = [
            f for f in report if f.code == "insertion.skeleton-prohibited"
        ]
        assert [f.relation for f in findings] == ["WARD"]


class TestDeletionFindings:
    def test_auto_repair_reports_resolution(self):
        _, view_object = chain_view()
        report = check_strategy(view_object, TranslatorPolicy.permissive())
        findings = [f for f in report if f.code == "deletion.auto-repair"]
        assert findings and findings[0].level is RiskLevel.LOW
        assert "DELETE" in findings[0].message

    def test_prohibit_repair_is_medium(self):
        _, view_object = chain_view()
        policy = policy_with(
            PENINSULA=RelationPolicy(
                on_reference_delete=ReferenceRepair.PROHIBIT
            )
        )
        report = check_strategy(view_object, policy)
        assert "deletion.repair-prohibit" in codes(report)

    def test_impossible_nullify_is_critical(self):
        # PENINSULA.k0 is a non-nullable key attribute: NULLIFY can
        # never be applied, which _coerce_answers used to accept
        # silently.
        _, view_object = chain_view()
        policy = policy_with(
            PENINSULA=RelationPolicy(
                on_reference_delete=ReferenceRepair.NULLIFY
            )
        )
        report = check_strategy(view_object, policy)
        findings = [
            f for f in report if f.code == "deletion.nullify-impossible"
        ]
        assert findings and findings[0].level is RiskLevel.CRITICAL
        assert report.is_critical


class TestReplacementFindings:
    def test_key_replacement_without_db_support_is_high(self):
        _, view_object = chain_view()
        policy = policy_with(
            R0=RelationPolicy(allow_db_key_replacement=False)
        )
        report = check_strategy(view_object, policy)
        findings = [
            f
            for f in report
            if f.code == "replacement.key-never-translatable"
        ]
        assert findings and findings[0].level is RiskLevel.HIGH

    def test_merge_with_shared_tuples_is_high(self):
        _, view_object = chain_view()
        policy = policy_with(
            R0=RelationPolicy(allow_merge_on_key_conflict=True)
        )
        report = check_strategy(view_object, policy)
        findings = [
            f for f in report if f.code == "replacement.merge-side-effects"
        ]
        assert findings and findings[0].level is RiskLevel.HIGH

    def test_merge_on_leaf_is_medium(self):
        _, view_object = chain_view(
            depth=1, with_peninsula=False, with_lookup=False
        )
        policy = policy_with(
            R1=RelationPolicy(allow_merge_on_key_conflict=True)
        )
        report = check_strategy(view_object, policy)
        findings = [
            f for f in report if f.code == "replacement.merge-side-effects"
        ]
        assert findings and findings[0].level is RiskLevel.MEDIUM

    def test_unreachable_merge_is_low(self):
        _, view_object = chain_view()
        policy = policy_with(
            R0=RelationPolicy(
                allow_key_replacement=False,
                allow_merge_on_key_conflict=True,
            )
        )
        report = check_strategy(view_object, policy)
        assert "replacement.unreachable-merge" in codes(report)

    def test_retarget_without_modify_is_medium(self):
        _, view_object = chain_view()
        policy = policy_with(PENINSULA=RelationPolicy(can_modify=False))
        report = check_strategy(view_object, policy)
        findings = [
            f for f in report if f.code == "replacement.retarget-prohibited"
        ]
        assert findings and findings[0].relation == "PENINSULA"


class TestStructureFindings:
    def test_circuit_is_high(self):
        graph = chain_schema(1)
        graph.reference("circuit_r1", "R1", "R0", ["k0"], ["k0"])
        view_object = define_view_object(
            graph,
            "chain_circuit",
            pivot="R0",
            selections=chain_selections(1),
        )
        report = check_strategy(view_object, TranslatorPolicy.permissive())
        findings = [f for f in report if f.code == "structure.circuit"]
        assert findings and findings[0].level is RiskLevel.HIGH


class TestCheckerHygiene:
    def test_checker_never_mutates_the_policy(self):
        # for_relation() inserts defaults as a side effect; the checker
        # must use a read-only lookup or audit replay would observe a
        # different policy snapshot after validation.
        case = workload_case("hospital")
        _, view_object, _ = case.build()
        policy = TranslatorPolicy.permissive()
        before = dict(policy.relations)
        check_strategy(view_object, policy)
        assert policy.relations == before

    def test_reports_are_deterministic(self):
        engine = MemoryEngine()
        _, view_object, _ = random_chain_case(engine, 11, adversarial=True)
        policy = policy_with(
            PENINSULA=RelationPolicy(
                on_reference_delete=ReferenceRepair.NULLIFY
            ),
            R0=RelationPolicy(allow_db_key_replacement=False),
        )
        one = check_strategy(view_object, policy)
        two = check_strategy(view_object, policy)
        assert one.render() == two.render()
        assert one.to_dict() == two.to_dict()
