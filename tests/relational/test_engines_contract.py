"""Engine contract: every engine implementation must behave identically.

Every test here runs against six engines — the in-memory engine, the
sqlite backend (statements built lazily, eagerly through
``prepare_relation``, and on a database file rather than ``:memory:``),
the ``BufferedEngine`` overlay, and a no-fault
``FaultInjectingEngine`` wrapper — pinning down the behaviour the
upper layers rely on.  The overlay engine deliberately refuses DDL and
rollback (it defers both to its base); those tests skip it with the
reason stated.
"""

import datetime

import pytest

from repro.core.query import execute_query
from repro.core.updates.bulk import BufferedEngine
from repro.core.view_object import define_view_object
from repro.errors import (
    DuplicateKeyError,
    NoSuchRowError,
    QueryError,
    SchemaError,
    TransactionError,
    UnknownRelationError,
)
from repro.relational.ddl import relation
from repro.relational.expressions import Attr
from repro.relational.faults import FaultInjectingEngine, FaultPlan
from repro.relational.memory_engine import MemoryEngine
from repro.relational.sqlite_engine import SqliteEngine
from repro.structural.schema_graph import StructuralSchema
from tests.conftest import make_engine

CONTRACT_SCHEMA = (
    relation("T")
    .text("k")
    .integer("n", nullable=True)
    .boolean("flag", nullable=True)
    .date("d", nullable=True)
    .key("k")
    .build()
)


@pytest.fixture(
    params=[
        "memory", "sqlite", "sqlite-prepared", "sqlite-file", "buffered",
        "fault",
    ]
)
def engine(request):
    kind = request.param
    if kind == "sqlite-file":
        # The only place sqlite takes file locks: a fresh database file.
        path = request.getfixturevalue("tmp_path") / "contract.sqlite"
        engine = SqliteEngine(str(path))
        request.addfinalizer(engine.close)
        engine.create_relation(CONTRACT_SCHEMA)
        return engine
    if kind in ("memory", "sqlite", "sqlite-prepared"):
        engine = make_engine(kind.split("-")[0])
        engine.create_relation(CONTRACT_SCHEMA)
        if kind == "sqlite-prepared":
            # The compiled translator's prepare_engine path: statement
            # templates built eagerly, behaviour identical.
            engine.prepare_relation("T")
        return engine
    base = MemoryEngine()
    base.create_relation(CONTRACT_SCHEMA)
    if kind == "buffered":
        return BufferedEngine(base)
    return FaultInjectingEngine(base, FaultPlan())  # no rules: passthrough


# A DATE inside a composite key: key lookups must convert it too.
DATED_SCHEMA = (
    relation("E")
    .date("day")
    .integer("seq")
    .boolean("open", nullable=True)
    .text("note", nullable=True)
    .key("day", "seq")
    .build()
)


def create(engine, schema):
    """Create a relation through the engine, or under an overlay (which
    defers DDL to its base by design)."""
    target = engine.base if isinstance(engine, BufferedEngine) else engine
    target.create_relation(schema)


def skip_if_overlay(engine, capability):
    if isinstance(engine, BufferedEngine):
        pytest.skip(
            f"BufferedEngine defers {capability} to its base by design"
        )


class TestCatalog:
    def test_relation_names(self, engine):
        assert engine.relation_names() == ("T",)

    def test_has_relation(self, engine):
        assert engine.has_relation("T")
        assert not engine.has_relation("U")

    def test_duplicate_create_rejected(self, engine):
        skip_if_overlay(engine, "DDL")
        with pytest.raises(SchemaError):
            engine.create_relation(relation("T").text("k").key("k").build())

    def test_unknown_relation(self, engine):
        with pytest.raises(UnknownRelationError):
            list(engine.scan("U"))

    def test_drop_relation(self, engine):
        skip_if_overlay(engine, "DDL")
        engine.drop_relation("T")
        assert not engine.has_relation("T")


class TestMutation:
    def test_insert_tuple_and_mapping(self, engine):
        key = engine.insert("T", ("a", 1, True, None))
        assert key == ("a",)
        engine.insert("T", {"k": "b", "n": 2})
        assert engine.count("T") == 2

    def test_duplicate_key(self, engine):
        engine.insert("T", ("a", 1, None, None))
        with pytest.raises(DuplicateKeyError):
            engine.insert("T", ("a", 2, None, None))

    def test_delete(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.delete("T", ("a",))
        assert engine.get("T", ("a",)) is None

    def test_delete_missing(self, engine):
        with pytest.raises(NoSuchRowError):
            engine.delete("T", ("zzz",))

    def test_replace_nonkey(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.replace("T", ("a",), ("a", 99, None, None))
        assert engine.get("T", ("a",)) == ("a", 99, None, None)

    def test_replace_key_change(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.replace("T", ("a",), ("b", 1, None, None))
        assert engine.get("T", ("a",)) is None
        assert engine.get("T", ("b",)) == ("b", 1, None, None)

    def test_replace_key_collision(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.insert("T", ("b", 2, None, None))
        with pytest.raises(DuplicateKeyError):
            engine.replace("T", ("a",), ("b", 1, None, None))

    def test_replace_missing(self, engine):
        with pytest.raises(NoSuchRowError):
            engine.replace("T", ("zzz",), ("zzz", 1, None, None))

    def test_clear(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.insert("T", ("b", 2, None, None))
        engine.clear("T")
        assert engine.count("T") == 0


class TestValueRoundTrip:
    def test_boolean_round_trip(self, engine):
        engine.insert("T", ("a", None, True, None))
        value = engine.get("T", ("a",))[2]
        assert value is True and isinstance(value, bool)

    def test_date_round_trip(self, engine):
        day = datetime.date(1991, 5, 29)
        engine.insert("T", ("a", None, None, day))
        assert engine.get("T", ("a",))[3] == day

    def test_null_round_trip(self, engine):
        engine.insert("T", ("a", None, None, None))
        assert engine.get("T", ("a",)) == ("a", None, None, None)


    def test_null_date_and_boolean_cells_round_trip(self, engine):
        """Nulls in converted columns stay null, in the same row as
        converted non-null cells, through get, scan and find_by."""
        day = datetime.date(1991, 5, 29)
        rows = [
            ("a", 1, None, day),
            ("b", 2, False, None),
            ("c", 3, None, None),
        ]
        for row in rows:
            engine.insert("T", row)
        assert [engine.get("T", (r[0],)) for r in rows] == rows
        assert sorted(engine.scan("T")) == rows
        assert engine.find_by("T", ("k",), ("b",)) == [rows[1]]
        assert type(engine.get("T", ("b",))[2]) is bool

    def test_datetime_narrows_to_date_on_write(self, engine):
        stamp = datetime.datetime(1991, 5, 29, 13, 45)
        engine.insert("T", ("a", None, None, stamp))
        stored = engine.get("T", ("a",))[3]
        assert stored == datetime.date(1991, 5, 29)
        assert type(stored) is datetime.date


class TestDateKey:
    """``get`` / ``delete`` / ``replace`` address rows by a key holding a
    DATE (stored as text by sqlite)."""

    DAY = datetime.date(1991, 5, 29)

    def test_get_by_date_key(self, engine):
        create(engine, DATED_SCHEMA)
        engine.insert("E", (self.DAY, 1, True, "x"))
        engine.insert("E", (self.DAY, 2, None, None))
        assert engine.get("E", (self.DAY, 1)) == (self.DAY, 1, True, "x")
        assert engine.get("E", (self.DAY, 2)) == (self.DAY, 2, None, None)
        assert engine.get("E", (datetime.date(1991, 5, 30), 1)) is None
        assert engine.contains("E", (self.DAY, 2))

    def test_get_by_datetime_narrowed_key(self, engine):
        create(engine, DATED_SCHEMA)
        engine.insert("E", (self.DAY, 1, False, None))
        stamp = datetime.datetime(1991, 5, 29, 8, 0)
        assert engine.get("E", (stamp, 1)) == (self.DAY, 1, False, None)

    def test_replace_and_delete_by_date_key(self, engine):
        create(engine, DATED_SCHEMA)
        engine.insert("E", (self.DAY, 1, True, "x"))
        moved = datetime.date(1992, 1, 1)
        engine.replace("E", (self.DAY, 1), (moved, 1, False, "y"))
        assert engine.get("E", (self.DAY, 1)) is None
        assert engine.get("E", (moved, 1)) == (moved, 1, False, "y")
        engine.delete("E", (moved, 1))
        assert engine.count("E") == 0

    def test_get_many_by_date_key(self, engine):
        create(engine, DATED_SCHEMA)
        engine.insert("E", (self.DAY, 1, True, None))
        found = engine.get_many("E", [(self.DAY, 1), (self.DAY, 9)])
        assert found == {(self.DAY, 1): (self.DAY, 1, True, None)}
        # Drift bug 18: a datetime key is answered under the stored key
        # on every engine (sqlite did; the others kept the caller's).
        stamp = datetime.datetime(1991, 5, 29, 8, 0)
        found = engine.get_many("E", [(stamp, 1)])
        assert found == {(self.DAY, 1): (self.DAY, 1, True, None)}


class TestReads:
    def test_scan(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.insert("T", ("b", 2, None, None))
        assert sorted(v[0] for v in engine.scan("T")) == ["a", "b"]

    def test_find_by(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.insert("T", ("b", 1, None, None))
        engine.insert("T", ("c", 2, None, None))
        assert len(engine.find_by("T", ("n",), (1,))) == 2

    def test_find_by_null(self, engine):
        engine.insert("T", ("a", None, None, None))
        engine.insert("T", ("b", 1, None, None))
        assert len(engine.find_by("T", ("n",), (None,))) == 1

    def test_find_by_converted_entries(self, engine):
        """DATE, ``datetime``-narrowed, BOOLEAN and NULL entries, alone
        and mixed; asked twice, so a statement kept from the first call
        answers the second."""
        day = datetime.date(1991, 5, 29)
        other = datetime.date(1991, 6, 1)
        rows = [
            ("a", 1, True, day),
            ("b", 1, False, day),
            ("c", 2, True, other),
            ("d", 2, None, None),
            ("e", None, True, None),
        ]
        for row in rows:
            engine.insert("T", row)

        def keys(names, entry):
            return [v[0] for v in engine.find_by("T", names, entry)]

        stamp = datetime.datetime(1991, 5, 29, 23, 59)
        for _ in range(2):
            assert keys(("d",), (day,)) == ["a", "b"]
            assert keys(("d",), (stamp,)) == ["a", "b"]
            assert keys(("flag",), (True,)) == ["a", "c", "e"]
            assert keys(("flag",), (False,)) == ["b"]
            assert keys(("flag",), (None,)) == ["d"]
            assert keys(("d",), (None,)) == ["d", "e"]
            assert keys(("flag", "d"), (True, day)) == ["a"]
            assert keys(("d", "flag"), (other, True)) == ["c"]
            assert keys(("flag", "d"), (True, None)) == ["e"]
            assert keys(("flag", "d"), (None, None)) == ["d"]
            assert keys(("n", "flag", "d"), (None, True, None)) == ["e"]
            assert keys(("n", "d"), (1, stamp)) == ["a", "b"]
        # Whole rows come back converted, not just their keys.
        assert engine.find_by("T", ("flag", "d"), (False, day)) == [rows[1]]

    def test_find_by_date_key_prefix(self, engine):
        create(engine, DATED_SCHEMA)
        day = datetime.date(1991, 5, 29)
        engine.insert("E", (day, 1, True, None))
        engine.insert("E", (day, 2, None, "n"))
        engine.insert("E", (datetime.date(1991, 5, 30), 1, None, None))
        found = engine.find_by("E", ("day",), (day,))
        assert found == [(day, 1, True, None), (day, 2, None, "n")]

    def test_select(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.insert("T", ("b", 5, None, None))
        matched = engine.select("T", Attr("n") > 2)
        assert [v[0] for v in matched] == ["b"]

    def test_select_date_parameter(self, engine):
        day = datetime.date(1991, 5, 29)
        engine.insert("T", ("a", None, None, day))
        matched = engine.select("T", Attr("d") == day)
        assert len(matched) == 1

    def test_contains(self, engine):
        engine.insert("T", ("a", 1, None, None))
        assert engine.contains("T", ("a",))
        assert not engine.contains("T", ("b",))


class TestKeyOrder:
    """``find_by`` answers in primary-key order: siblings in an instance
    come in the order of their keys on every engine, through an index
    or a scan, and under the overlay with pending inserts, re-keys and
    tombstones mixed into its base's answer."""

    @pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
    def test_find_by_answers_in_primary_key_order(self, engine, indexed):
        base = engine.base if isinstance(engine, BufferedEngine) else engine
        if indexed:
            base.create_index("T", ("n",))
        for k in ("m", "c", "x", "a", "z"):
            base.insert("T", (k, 1, None, None))
        engine.insert("T", ("q", 1, None, None))
        engine.insert("T", ("d", 2, None, None))
        engine.replace("T", ("x",), ("b", 1, None, None))  # re-keyed
        engine.replace("T", ("z",), ("z", 2, None, None))  # moved away
        engine.delete("T", ("c",))
        assert [v[0] for v in engine.find_by("T", ("n",), (1,))] == [
            "a", "b", "m", "q",
        ]
        assert [v[0] for v in engine.find_by("T", ("n",), (2,))] == ["d", "z"]

    def test_composite_key_order_is_by_value_not_by_text(self, engine):
        create(engine, DATED_SCHEMA)
        day, earlier = datetime.date(1991, 5, 29), datetime.date(1990, 12, 1)
        for row in [(day, 10), (day, 2), (earlier, 5), (day, 1)]:
            engine.insert("E", row + (True, None))
        found = engine.find_by("E", ("open",), (True,))
        assert [v[:2] for v in found] == [
            (earlier, 5), (day, 1), (day, 2), (day, 10),
        ]

    def test_unindexed_memory_engine(self):
        engine = MemoryEngine(use_indexes=False)
        engine.create_relation(CONTRACT_SCHEMA)
        engine.create_index("T", ("n",))  # a no-op: every find_by scans
        for k in ("m", "c", "a"):
            engine.insert("T", (k, 1, None, None))
        assert [v[0] for v in engine.find_by("T", ("n",), (1,))] == ["a", "c", "m"]


class TestFindByMany:
    """``find_by_many(n, a, es)[e] == find_by(n, a, e)`` for every ``e``,
    order included, with one answer per distinct entry, keyed as
    ``get_many`` keys (a ``datetime`` by its ``date``)."""

    DAY = datetime.date(1991, 5, 29)
    OTHER = datetime.date(1991, 6, 1)
    STAMP = datetime.datetime(1991, 5, 29, 23, 59)

    def agree(self, engine, name, names, entries, keys=None):
        found = engine.find_by_many(name, names, entries)
        keys = list(entries) if keys is None else keys
        assert set(found) == set(keys)
        for entry, key in zip(entries, keys):
            assert found[key] == engine.find_by(name, names, entry)
        return found

    @pytest.fixture
    def rows(self, engine):
        rows = [
            ("m", 1, True, self.DAY),
            ("c", 1, False, self.DAY),
            ("x", 2, True, self.OTHER),
            ("a", 1, None, None),
            ("q", None, True, None),
            ("b", 2, False, None),
        ]
        for row in rows:
            engine.insert("T", row)
        return rows

    def test_duplicate_null_and_absent_entries(self, engine, rows):
        entries = [(1,), (2,), (1,), (None,), (99,), (2,)]
        found = self.agree(engine, "T", ("n",), entries)
        assert [v[0] for v in found[(1,)]] == ["a", "c", "m"]
        assert [v[0] for v in found[(None,)]] == ["q"]
        assert found[(99,)] == []
        assert engine.find_by_many("T", ("n",), []) == {}

    def test_date_and_boolean_attributes(self, engine, rows):
        self.agree(
            engine, "T", ("d",),
            [(self.DAY,), (self.STAMP,), (self.OTHER,), (None,)],
            keys=[(self.DAY,), (self.DAY,), (self.OTHER,), (None,)],
        )
        self.agree(engine, "T", ("flag",), [(True,), (False,), (None,)])

    def test_composite_attributes(self, engine, rows):
        entries = [
            (True, self.DAY), (False, self.DAY), (True, None),
            (None, None), (True, self.OTHER), (False, self.OTHER),
        ]
        self.agree(engine, "T", ("flag", "d"), entries)
        self.agree(engine, "T", ("d", "n"), [(self.STAMP, 1), (self.OTHER, 2)],
                   keys=[(self.DAY, 1), (self.OTHER, 2)])

    def test_composite_key_order_by_value(self, engine):
        create(engine, DATED_SCHEMA)
        earlier = datetime.date(1990, 12, 1)
        for row in [(self.DAY, 10), (self.DAY, 2), (earlier, 5), (self.DAY, 1)]:
            engine.insert("E", row + (True, "n"))
        found = self.agree(
            engine, "E", ("open", "note"), [(True, "n"), (False, "n")]
        )
        assert [v[:2] for v in found[(True, "n")]] == [
            (earlier, 5), (self.DAY, 1), (self.DAY, 2), (self.DAY, 10),
        ]
        self.agree(engine, "E", ("day",), [(self.STAMP,), (earlier,)],
                   keys=[(self.DAY,), (earlier,)])

    def test_many_entries(self, engine):
        for i in range(600):
            engine.insert("T", (f"k{i:03}", i % 550, i % 2 == 0, None))
        # 700 single entries and 300 composite ones, absent entries
        # included.
        self.agree(engine, "T", ("n",), [(i,) for i in range(-50, 650)])
        self.agree(
            engine, "T", ("n", "flag"),
            [(i, flag) for i in range(150) for flag in (True, False)],
        )

    @pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
    def test_overlay_with_pending_writes(self, engine, indexed):
        base = engine.base if isinstance(engine, BufferedEngine) else engine
        if indexed:
            base.create_index("T", ("n",))
        for k in ("m", "c", "x", "a", "z"):
            base.insert("T", (k, 1, None, None))
        engine.insert("T", ("q", 1, None, None))         # pending insert
        engine.replace("T", ("x",), ("b", 1, None, None))  # re-keyed
        engine.replace("T", ("z",), ("z", 2, None, None))  # moved away
        engine.delete("T", ("c",))                       # tombstone
        found = self.agree(engine, "T", ("n",), [(1,), (2,), (3,)])
        assert [v[0] for v in found[(1,)]] == ["a", "b", "m", "q"]
        assert [v[0] for v in found[(2,)]] == ["z"]


class TestPushedLiterals:
    """An object query's pivot conjuncts are handed to the engine, so
    the literal in one is typed before any engine sees it (drift bug 16:
    sqlite ranked storage classes where Python raised ``TypeError``, and
    compared DATE columns as ISO text where Python compared nothing),
    and an ordering between two attributes needs comparable domains."""

    ROWS = [
        ("a", 1, True, datetime.date(1990, 1, 1)),
        ("b", 2, False, datetime.date(1999, 12, 31)),
        ("c", None, None, None),
    ]

    @pytest.fixture
    def ask(self, engine):
        graph = StructuralSchema("contract")
        graph.add_relation(CONTRACT_SCHEMA)
        view_object = define_view_object(
            graph, "t", "T", {"T": CONTRACT_SCHEMA.attribute_names}
        )
        for row in self.ROWS:
            engine.insert("T", row)

        def ask(text):
            found = execute_query(view_object, engine, text)
            return sorted(instance.key[0] for instance in found)

        return ask

    @pytest.mark.parametrize("text,keys", [
        ("d < '1995-01-01'", ["a"]),
        ("'1995-01-01' > d", ["a"]),
        ("not d < '1995-01-01'", ["b", "c"]),
        ("d = '1990-01-01'", ["a"]),
        ("d != '1990-01-01'", ["b"]),
        ("d in ('1990-01-01', '1999-12-31')", ["a", "b"]),
        ("d not in ('1990-01-01')", ["b", "c"]),
        ("n < 1.5", ["a"]),          # numbers order alike on both
        ("n = 'x'", []),             # equality: matches nothing, on both
        ("n in ('x', 2)", ["b"]),
        ("flag = true", ["a"]),
        ("n = k", []),               # equality across domains: nothing
        ("n <= n", ["a", "b"]),      # one domain orders on both
    ])
    def test_answered_alike(self, ask, text, keys):
        assert ask(text) == keys

    @pytest.mark.parametrize("text,refusal", [
        ("n < 'x'", "cannot compare INTEGER attribute 'n' with 'x'"),
        ("'x' >= n", "cannot compare INTEGER attribute 'n' with 'x'"),
        ("k > 5", "cannot compare TEXT attribute 'k' with 5"),
        ("flag <= 2", "cannot compare BOOLEAN attribute 'flag' with 2"),
        ("d < 5", "cannot compare DATE attribute 'd' with 5"),
        ("d < 'soon'", "cannot compare DATE attribute 'd' with 'soon'"),
        ("d = 'soon'", "cannot compare DATE attribute 'd' with 'soon'"),
        ("d in ('1990-01-01', 'soon')",
         "cannot compare DATE attribute 'd' with 'soon'"),
        ("n < k", "cannot compare INTEGER attribute 'n' with TEXT attribute 'k'"),
        ("d >= k", "cannot compare DATE attribute 'd' with TEXT attribute 'k'"),
        ("flag > n",
         "cannot compare BOOLEAN attribute 'flag' with INTEGER attribute 'n'"),
    ])
    def test_refused_alike_and_before_any_row(self, ask, engine, text, refusal):
        with pytest.raises(QueryError, match=refusal):
            ask(text)
        for row in self.ROWS:
            engine.delete("T", row[:1])
        with pytest.raises(QueryError, match=refusal):
            ask(text)  # not a matter of which rows happen to be there


class TestTransactions:
    def test_commit_keeps_changes(self, engine):
        engine.begin()
        engine.insert("T", ("a", 1, None, None))
        engine.commit()
        assert engine.count("T") == 1

    def test_rollback_discards_changes(self, engine):
        skip_if_overlay(engine, "rollback")
        engine.insert("T", ("keep", 0, None, None))
        engine.begin()
        engine.insert("T", ("a", 1, None, None))
        engine.delete("T", ("keep",))
        engine.rollback()
        assert engine.get("T", ("keep",)) == ("keep", 0, None, None)
        assert engine.get("T", ("a",)) is None

    def test_rollback_restores_replace(self, engine):
        skip_if_overlay(engine, "rollback")
        engine.insert("T", ("a", 1, None, None))
        engine.begin()
        engine.replace("T", ("a",), ("b", 9, None, None))
        engine.rollback()
        assert engine.get("T", ("a",)) == ("a", 1, None, None)
        assert engine.get("T", ("b",)) is None

    def test_nested_inner_rollback(self, engine):
        skip_if_overlay(engine, "rollback")
        engine.begin()
        engine.insert("T", ("outer", 1, None, None))
        engine.begin()
        engine.insert("T", ("inner", 2, None, None))
        engine.rollback()
        engine.commit()
        assert engine.contains("T", ("outer",))
        assert not engine.contains("T", ("inner",))

    def test_nested_outer_rollback_discards_inner_commit(self, engine):
        skip_if_overlay(engine, "rollback")
        engine.begin()
        engine.begin()
        engine.insert("T", ("inner", 2, None, None))
        engine.commit()
        engine.rollback()
        assert engine.count("T") == 0

    def test_unbalanced_commit(self, engine):
        with pytest.raises(TransactionError):
            engine.commit()

    def test_unbalanced_rollback(self, engine):
        with pytest.raises(TransactionError):
            engine.rollback()

    def test_transaction_context_manager(self, engine):
        skip_if_overlay(engine, "rollback")
        with engine.transaction():
            engine.insert("T", ("a", 1, None, None))
        assert engine.count("T") == 1
        with pytest.raises(DuplicateKeyError):
            with engine.transaction():
                engine.insert("T", ("b", 1, None, None))
                engine.insert("T", ("b", 1, None, None))
        assert not engine.contains("T", ("b",))

    def test_in_transaction_flag(self, engine):
        assert not engine.in_transaction
        engine.begin()
        assert engine.in_transaction
        engine.commit()
        assert not engine.in_transaction


class TestRecreate:
    def test_recreated_relation_sees_no_stale_codec_or_statement(self, engine):
        """Drop ``T`` and create it again with another column order and
        other types: everything kept per relation name (statement
        templates, DATE/BOOLEAN positions, find_by statements) must go
        with the old relation."""
        skip_if_overlay(engine, "DDL")
        day = datetime.date(1991, 5, 29)
        engine.insert("T", ("a", 1, True, day))
        assert engine.get("T", ("a",)) == ("a", 1, True, day)
        assert engine.find_by("T", ("flag", "d"), (True, day))
        assert engine.find_by("T", ("n",), (1,))
        engine.drop_relation("T")
        engine.create_relation(
            relation("T")
            .date("n")                       # was INTEGER, position 1 -> 0
            .boolean("d", nullable=True)     # was DATE
            .text("flag", nullable=True)     # was BOOLEAN
            .integer("k")                    # was TEXT, the key, position 0
            .key("k", "n")
            .build()
        )
        row = (day, False, "true", 7)
        assert engine.insert("T", row) == (7, day)
        assert engine.get("T", (7, day)) == row
        assert list(engine.scan("T")) == [row]
        assert engine.find_by("T", ("flag", "d"), ("true", False)) == [row]
        assert engine.find_by("T", ("n",), (day,)) == [row]
        assert engine.find_by("T", ("flag", "d"), (None, False)) == []
        engine.replace("T", (7, day), (day, None, None, 8))
        assert engine.get("T", (8, day)) == (day, None, None, 8)
        engine.delete("T", (8, day))
        assert engine.count("T") == 0


class TestIndexes:
    def test_create_index_and_find(self, engine):
        engine.insert("T", ("a", 1, None, None))
        engine.create_index("T", ("n",))
        engine.insert("T", ("b", 1, None, None))
        assert len(engine.find_by("T", ("n",), (1,))) == 2
