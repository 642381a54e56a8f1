"""Translator wrapper: transactions, plans, backend independence."""

import copy

import pytest

from repro.errors import UpdateError, UpdateRejectedError
from repro.core.updates.operations import CompleteDeletion, Replacement
from repro.core.updates.policy import RelationPolicy, TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.structural.integrity import IntegrityChecker
from repro.workloads.figures import course_info_object


def any_course(engine):
    return next(iter(engine.scan("COURSES")))[0]


class TestPlans:
    def test_plan_has_reasons(self, omega, university_engine):
        translator = Translator(omega)
        cid = any_course(university_engine)
        plan = translator.apply(university_engine, CompleteDeletion((cid,)))
        assert len(plan.reasons) == len(plan.operations)
        assert any("VO-CD" in reason for reason in plan.reasons)

    def test_plan_relations_touched(self, omega, university_engine):
        translator = Translator(omega)
        cid = any_course(university_engine)
        plan = translator.apply(university_engine, CompleteDeletion((cid,)))
        assert plan.relations_touched()[0] == "COURSES"


class TestTransactionBoundary:
    def test_no_dangling_transaction_after_success(
        self, omega, university_engine
    ):
        translator = Translator(omega)
        translator.apply(
            university_engine,
            CompleteDeletion((any_course(university_engine),)),
        )
        assert not university_engine.in_transaction

    def test_no_dangling_transaction_after_failure(
        self, omega, university_engine
    ):
        translator = Translator(omega)
        with pytest.raises(UpdateError):
            translator.apply(university_engine, CompleteDeletion(("GHOST",)))
        assert not university_engine.in_transaction


class TestInstantiateHelper:
    def test_instantiate(self, omega, university_engine):
        translator = Translator(omega)
        cid = any_course(university_engine)
        instance = translator.instantiate(university_engine, (cid,))
        assert instance.key == (cid,)

    def test_instantiate_missing(self, omega, university_engine):
        translator = Translator(omega)
        with pytest.raises(UpdateError, match="no instance"):
            translator.instantiate(university_engine, ("GHOST",))


class TestSqliteBackend:
    """The same translator drives the sqlite engine unchanged."""

    def test_delete_on_sqlite(self, omega, university_sqlite, university_graph):
        translator = Translator(omega)
        cid = any_course(university_sqlite)
        translator.apply(university_sqlite, CompleteDeletion((cid,)))
        assert university_sqlite.get("COURSES", (cid,)) is None
        assert IntegrityChecker(university_graph).is_consistent(
            university_sqlite
        )

    def test_replace_on_sqlite(self, omega, university_sqlite):
        translator = Translator(omega)
        cid = any_course(university_sqlite)
        old = translator.instantiate(university_sqlite, (cid,))
        new = copy.deepcopy(old.to_dict())
        new["title"] = "Changed on sqlite"
        translator.apply(university_sqlite, Replacement(old, new))
        assert university_sqlite.get("COURSES", (cid,))[1] == "Changed on sqlite"

    def test_rejection_rolls_back_on_sqlite(self, omega, university_sqlite):
        policy = TranslatorPolicy()
        policy.set_relation("DEPARTMENT", RelationPolicy(can_modify=False))
        translator = Translator(omega, policy=policy)
        cid = any_course(university_sqlite)
        old = translator.instantiate(university_sqlite, (cid,))
        new = copy.deepcopy(old.to_dict())
        new["dept_name"] = "No Such Dept"
        for dept in new.get("DEPARTMENT", []):
            dept["dept_name"] = "No Such Dept"
        with pytest.raises(UpdateRejectedError):
            translator.apply(university_sqlite, Replacement(old, new))
        assert university_sqlite.get("COURSES", (cid,)) is not None
        assert university_sqlite.get("DEPARTMENT", ("No Such Dept",)) is None

    def test_identical_plans_across_backends(
        self, university_graph, university_engine, university_sqlite
    ):
        """The translation is engine-independent: same request, same
        operation sequence on both backends."""
        omega = course_info_object(university_graph)
        translator = Translator(omega)
        cid = any_course(university_engine)
        plan_memory = translator.apply(
            university_engine, CompleteDeletion((cid,))
        )
        plan_sqlite = translator.apply(
            university_sqlite, CompleteDeletion((cid,))
        )
        assert sorted(op.describe() for op in plan_memory) == sorted(
            op.describe() for op in plan_sqlite
        )
