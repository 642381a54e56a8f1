"""Engine introspection: counters, changelog, table clearing."""

import pytest

from repro.relational.ddl import relation
from repro.relational.memory_engine import MemoryEngine
from tests.conftest import Heard


@pytest.fixture
def engine():
    engine = MemoryEngine()
    engine.create_relation(
        relation("T").text("k").integer("n", nullable=True).key("k").build()
    )
    return engine


def test_operation_counters(engine):
    engine.insert("T", ("a", 1))
    engine.insert("T", ("b", 2))
    engine.replace("T", ("a",), ("a", 9))
    engine.delete("T", ("b",))
    counters = engine.operation_counters()
    assert counters == {"insert": 2, "delete": 1, "replace": 1}


def test_counters_shrink_on_rollback(engine):
    engine.insert("T", ("a", 1))
    engine.begin()
    engine.insert("T", ("b", 2))
    engine.rollback()
    assert engine.operation_counters()["insert"] == 1


def test_changelog_records_old_values(engine):
    engine.insert("T", ("a", 1))
    heard = Heard(engine)
    engine.replace("T", ("a",), ("a", 9))
    (record,) = heard.take()
    assert record.kind == "replace"
    assert record.old_values == ("a", 1)
    assert record.new_values == ("a", 9)


def test_clear_resets_indexes(engine):
    engine.create_index("T", ("n",))
    engine.insert("T", ("a", 1))
    table = engine._table("T")
    table.clear()
    assert len(table) == 0
    assert table.find_by(("n",), (1,)) == []
    table.insert(("z", 1))
    assert len(table.find_by(("n",), (1,))) == 1


def test_index_ablation_switch():
    disabled = MemoryEngine(use_indexes=False)
    disabled.create_relation(
        relation("T").text("k").integer("n", nullable=True).key("k").build()
    )
    disabled.create_index("T", ("n",))  # silently skipped
    assert disabled._table("T").index_count == 0
    disabled.insert("T", ("a", 1))
    assert len(disabled.find_by("T", ("n",), (1,))) == 1  # scan fallback
