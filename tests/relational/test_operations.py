"""Update operations as values, plans, and plan application."""

import pytest

from repro.errors import DuplicateKeyError
from repro.relational.ddl import relation
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import (
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)


@pytest.fixture
def engine():
    engine = MemoryEngine()
    engine.create_relation(
        relation("T").text("k").integer("n", nullable=True).key("k").build()
    )
    engine.insert("T", ("seed", 0))
    return engine


class TestOperationValues:
    def test_equality(self):
        assert Insert("T", ("a", 1)) == Insert("T", ("a", 1))
        assert Delete("T", ("a",)) == Delete("T", ("a",))
        assert Replace("T", ("a",), ("a", 2)) == Replace("T", ("a",), ("a", 2))
        assert Insert("T", ("a", 1)) != Insert("T", ("a", 2))

    def test_hashable(self):
        ops = {Insert("T", ("a", 1)), Delete("T", ("a",)), Replace("T", ("a",), ("a", 2))}
        assert len(ops) == 3

    def test_kinds(self):
        assert Insert("T", ()).kind == "insert"
        assert Delete("T", ()).kind == "delete"
        assert Replace("T", (), ()).kind == "replace"

    def test_describe(self):
        assert "INSERT" in Insert("T", ("a", 1)).describe()
        assert "DELETE" in Delete("T", ("a",)).describe()
        assert "REPLACE" in Replace("T", ("a",), ("a", 2)).describe()


class TestUpdatePlan:
    def test_counts(self):
        plan = UpdatePlan()
        plan.add(Insert("T", ("a", 1)), "why")
        plan.add(Delete("T", ("a",)))
        plan.add(Replace("T", ("b",), ("b", 2)))
        assert plan.count() == 3
        assert plan.count("insert") == 1
        assert plan.count("delete") == 1
        assert plan.count("replace") == 1

    def test_relations_touched_ordered(self):
        plan = UpdatePlan()
        plan.add(Insert("B", ("x",)))
        plan.add(Insert("A", ("y",)))
        plan.add(Delete("B", ("x",)))
        assert plan.relations_touched() == ("B", "A")

    def test_describe_includes_reasons(self):
        plan = UpdatePlan()
        plan.add(Insert("T", ("a", 1)), "because of the island")
        assert "because of the island" in plan.describe()

    def test_extend(self):
        a, b = UpdatePlan(), UpdatePlan()
        a.add(Insert("T", ("a", 1)))
        b.add(Delete("T", ("a",)))
        a.extend(b)
        assert len(a) == 2


class TestApplyPlan:
    def test_apply_all(self, engine):
        plan = [
            Insert("T", ("a", 1)),
            Replace("T", ("a",), ("a", 2)),
            Delete("T", ("seed",)),
        ]
        assert engine.apply_batch(plan) == 3
        assert engine.get("T", ("a",)) == ("a", 2)
        assert engine.get("T", ("seed",)) is None

    def test_apply_rolls_back_on_error(self, engine):
        plan = [
            Insert("T", ("a", 1)),
            Insert("T", ("seed", 9)),  # duplicate key -> fails
        ]
        with pytest.raises(DuplicateKeyError):
            engine.apply_batch(plan)
        assert engine.get("T", ("a",)) is None
        assert engine.get("T", ("seed",)) == ("seed", 0)
