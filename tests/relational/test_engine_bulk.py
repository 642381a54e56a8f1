"""Engine batch primitives, multi-request plans, and cross-backend parity
fixes (integrity-error mapping, index naming, datetime narrowing)."""

import datetime

import pytest

from repro.errors import DuplicateKeyError, NoSuchRowError, SchemaError
from repro.relational.ddl import relation
from repro.relational.operations import (
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)
from repro.relational.sqlite_engine import SqliteEngine
from repro.relational.domains import DATE
from tests.conftest import make_engine


@pytest.fixture
def engine(backend):
    engine = make_engine(backend)
    engine.create_relation(
        relation("T")
        .text("k")
        .integer("n", nullable=True)
        .attribute("d", DATE, nullable=True)
        .key("k")
        .build()
    )
    return engine


def row(i, n=None, d=None):
    return (f"k{i}", n if n is not None else i, d)


class TestInsertMany:
    def test_inserts_and_returns_keys(self, engine):
        keys = engine.insert_many("T", [row(i) for i in range(5)])
        assert keys == [(f"k{i}",) for i in range(5)]
        assert engine.count("T") == 5

    def test_accepts_mappings(self, engine):
        engine.insert_many("T", [{"k": "a", "n": 1, "d": None}])
        assert engine.get("T", ("a",)) == ("a", 1, None)

    def test_atomic_on_duplicate_against_table(self, engine):
        engine.insert("T", row(1))
        with pytest.raises(DuplicateKeyError) as err:
            engine.insert_many("T", [row(2), row(1), row(3)])
        assert err.value.key == ("k1",)
        # nothing from the batch survived
        assert engine.count("T") == 1
        assert engine.get("T", ("k2",)) is None

    def test_atomic_on_intra_batch_duplicate(self, engine):
        with pytest.raises(DuplicateKeyError) as err:
            engine.insert_many("T", [row(1), row(2), row(1, n=9)])
        assert err.value.key == ("k1",)
        assert engine.count("T") == 0

    def test_empty_batch(self, engine):
        assert engine.insert_many("T", []) == []

    def test_changelog_records_each_row(self, engine):
        before = engine.operation_counters()["insert"]
        engine.insert_many("T", [row(i) for i in range(3)])
        assert engine.operation_counters()["insert"] == before + 3


class TestApplyBatch:
    def test_mixed_operations(self, engine):
        engine.insert("T", row(0))
        applied = engine.apply_batch(
            [
                Insert("T", row(1)),
                Insert("T", row(2)),
                Replace("T", ("k0",), ("k0", 99, None)),
                Delete("T", ("k1",)),
            ]
        )
        assert applied == 4
        assert engine.get("T", ("k0",)) == ("k0", 99, None)
        assert engine.get("T", ("k1",)) is None
        assert engine.get("T", ("k2",)) == ("k2", 2, None)

    def test_atomic_on_failure(self, engine):
        engine.insert("T", row(0))
        with pytest.raises(NoSuchRowError):
            engine.apply_batch(
                [Insert("T", row(1)), Delete("T", ("missing",))]
            )
        assert engine.get("T", ("k1",)) is None
        assert engine.count("T") == 1

    def test_adjacent_insert_runs_grouped_on_sqlite(self):
        engine = SqliteEngine()
        engine.create_relation(
            relation("T").text("k").integer("n", nullable=True).key("k").build()
        )
        applied = engine.apply_batch(
            [Insert("T", ("a", 1)), Insert("T", ("b", 2)), Delete("T", ("a",))]
        )
        assert applied == 3
        assert engine.count("T") == 1


class TestGetMany:
    def test_found_and_missing(self, engine):
        engine.insert_many("T", [row(i) for i in range(4)])
        found = engine.get_many("T", [("k1",), ("k3",), ("nope",)])
        assert found == {("k1",): row(1), ("k3",): row(3)}

    def test_sqlite_chunking(self):
        engine = SqliteEngine()
        engine.create_relation(
            relation("T").text("k").integer("n", nullable=True).key("k").build()
        )
        engine.insert_many("T", [(f"k{i}", i) for i in range(1200)])
        keys = [(f"k{i}",) for i in range(1200)]
        found = engine.get_many("T", keys)
        assert len(found) == 1200
        assert found[("k777",)] == ("k777", 777)

    def test_composite_key_fallback(self, backend):
        engine = make_engine(backend)
        engine.create_relation(
            relation("P")
            .text("a")
            .text("b")
            .integer("n", nullable=True)
            .key("a", "b")
            .build()
        )
        engine.insert("P", ("x", "y", 1))
        engine.insert("P", ("x", "z", 2))
        found = engine.get_many("P", [("x", "y"), ("x", "q")])
        assert found == {("x", "y"): ("x", "y", 1)}


def plan_of(*ops):
    plan = UpdatePlan()
    for op in ops:
        plan.add(op, "test")
    return plan


class TestApplyPlanBatch:
    def test_executes_coalesced(self, engine):
        """A multi-request plan lands as its requests emitted it: the
        insert and the replace of one row both run, in order."""
        engine.insert("T", row(0))
        combined = UpdatePlan()
        for plan in (
            plan_of(Insert("T", row(1))),
            plan_of(Replace("T", ("k1",), ("k1", 42, None))),
            plan_of(Delete("T", ("k0",))),
        ):
            combined.extend(plan)
        engine.apply_batch(combined.operations)
        assert [op.kind for op in combined] == ["insert", "replace", "delete"]
        assert engine.get("T", ("k1",)) == ("k1", 42, None)
        assert engine.get("T", ("k0",)) is None


class TestIntegrityErrorMapping:
    """Satellite: sqlite must raise the same types as the memory engine."""

    def test_null_in_non_nullable_parity(self, engine):
        with pytest.raises(SchemaError):
            engine.insert("T", (None, 1, None))

    def test_sqlite_not_null_constraint_maps_to_schema_error(self):
        engine = SqliteEngine()
        engine.create_relation(
            relation("T").text("k").integer("n", nullable=True).key("k").build()
        )
        # Bypass schema validation so sqlite itself sees the NULL and
        # raises its IntegrityError — the mapping must not mislabel it
        # as a duplicate key.
        engine._coerce_values = lambda name, values: tuple(values)
        with pytest.raises(SchemaError):
            engine.insert("T", (None, 1))

    def test_sqlite_duplicate_still_duplicate(self):
        engine = SqliteEngine()
        engine.create_relation(
            relation("T").text("k").integer("n", nullable=True).key("k").build()
        )
        engine.insert("T", ("a", 1))
        with pytest.raises(DuplicateKeyError):
            engine.insert("T", ("a", 2))


class TestIndexNaming:
    """Satellite: index names derive from columns so IF NOT EXISTS dedupes."""

    def _index_count(self, engine):
        cursor = engine._connection.execute(
            "SELECT COUNT(*) FROM sqlite_master "
            "WHERE type = 'index' AND name LIKE 'idx_%'"
        )
        return cursor.fetchone()[0]

    def test_repeated_create_index_dedupes(self):
        engine = SqliteEngine()
        engine.create_relation(
            relation("T").text("k").integer("n", nullable=True).key("k").build()
        )
        for _ in range(5):
            engine.create_index("T", ["n"])
        assert self._index_count(engine) == 1

    def test_distinct_column_lists_get_distinct_indexes(self):
        engine = SqliteEngine()
        engine.create_relation(
            relation("T")
            .text("k")
            .integer("n", nullable=True)
            .integer("m", nullable=True)
            .key("k")
            .build()
        )
        engine.create_index("T", ["n"])
        engine.create_index("T", ["m"])
        engine.create_index("T", ["n", "m"])
        assert self._index_count(engine) == 3


class TestDatetimeNarrowing:
    """Satellite regression: datetime.datetime narrows to date at the
    engine boundary, on both backends, for every entry point."""

    NOON = datetime.datetime(2024, 3, 14, 12, 30, 45)
    DAY = datetime.date(2024, 3, 14)

    def test_insert_narrows(self, engine):
        engine.insert("T", ("a", 1, self.NOON))
        stored = engine.get("T", ("a",))
        assert stored[2] == self.DAY
        assert type(stored[2]) is datetime.date

    def test_roundtrip_decode(self, engine):
        # A stored time suffix would break date.fromisoformat on sqlite.
        engine.insert("T", ("a", 1, self.NOON))
        assert list(engine.scan("T")) == [("a", 1, self.DAY)]

    def test_replace_narrows(self, engine):
        engine.insert("T", ("a", 1, None))
        engine.replace("T", ("a",), ("a", 1, self.NOON))
        assert engine.get("T", ("a",))[2] == self.DAY

    def test_find_by_accepts_datetime_entry(self, engine):
        engine.insert("T", ("a", 1, self.DAY))
        assert engine.find_by("T", ["d"], [self.NOON]) == [("a", 1, self.DAY)]

    def test_date_key_lookup_accepts_datetime(self, backend):
        engine = make_engine(backend)
        engine.create_relation(
            relation("E").attribute("day", DATE).integer("n", nullable=True).key("day").build()
        )
        engine.insert("E", (self.NOON, 7))
        assert engine.get("E", (self.NOON,)) == (self.DAY, 7)
        assert engine.get("E", (self.DAY,)) == (self.DAY, 7)
        engine.delete("E", (self.NOON,))
        assert engine.count("E") == 0

    def test_insert_many_narrows(self, engine):
        engine.insert_many("T", [("a", 1, self.NOON), ("b", 2, self.NOON)])
        assert engine.get("T", ("b",))[2] == self.DAY
