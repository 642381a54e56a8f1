"""Predicate expressions: evaluation, null semantics, SQL compilation."""

import pytest

from repro.errors import QueryError
from repro.relational.ddl import relation
from repro.relational.expressions import Attr, Comparison, Const, IsNull, Not, Or, TRUE
from repro.relational.memory_engine import MemoryEngine

ROW = {"units": 4, "level": "graduate", "instructor": None}
SCHEMA = (
    relation("COURSES")
    .text("level")
    .integer("units")
    .text("instructor", nullable=True)
    .key("level")
    .build()
)


class TestEvaluation:
    def test_equality(self):
        assert (Attr("level") == "graduate").evaluate(ROW)
        assert not (Attr("level") == "undergraduate").evaluate(ROW)

    def test_ordering_operators(self):
        assert (Attr("units") > 3).evaluate(ROW)
        assert (Attr("units") >= 4).evaluate(ROW)
        assert (Attr("units") < 5).evaluate(ROW)
        assert (Attr("units") <= 4).evaluate(ROW)
        assert (Attr("units") != 3).evaluate(ROW)

    def test_and_or_not(self):
        p = (Attr("units") > 3) & (Attr("level") == "graduate")
        assert p.evaluate(ROW)
        q = (Attr("units") > 9) | (Attr("level") == "graduate")
        assert q.evaluate(ROW)
        assert not (~q).evaluate(ROW)

    def test_true_constant(self):
        assert TRUE.evaluate(ROW)

    def test_empty_or_is_false(self):
        assert not Or().evaluate(ROW)

    def test_unknown_attribute_raises(self):
        with pytest.raises(QueryError):
            (Attr("missing") == 1).evaluate(ROW)

    def test_attr_to_attr_comparison(self):
        assert Comparison("=", Attr("units"), Attr("units")).evaluate(ROW)


class TestBinding:
    def test_bound_test_reads_tuple_positions(self):
        test = ((Attr("units") > 3) & Attr("instructor").is_null()).bind(SCHEMA)
        assert test(("graduate", 4, None))
        assert not test(("graduate", 4, "Keller"))
        assert not test(("graduate", 2, None))

    def test_unknown_attribute_raises_at_bind_on_an_empty_relation(self):
        predicate = (Attr("units") > 3) & (Attr("missing") == 1)
        with pytest.raises(QueryError, match="'COURSES' has no attribute 'missing'"):
            predicate.bind(SCHEMA)
        engine = MemoryEngine()
        engine.create_relation(SCHEMA)
        with pytest.raises(QueryError):
            engine.select("COURSES", predicate)  # no row to trip over


class TestNullSemantics:
    def test_null_comparison_false(self):
        assert not (Attr("instructor") == "Keller").evaluate(ROW)
        assert not (Attr("instructor") != "Keller").evaluate(ROW)

    def test_is_null(self):
        assert Attr("instructor").is_null().evaluate(ROW)
        assert not Attr("units").is_null().evaluate(ROW)

    def test_not_is_null(self):
        assert Not(Attr("instructor").is_null()).evaluate(ROW) is False


class TestSqlCompilation:
    def test_comparison_sql(self):
        sql, params = (Attr("units") >= 3).to_sql()
        # COALESCE pins SQL's three-valued logic to our two-valued
        # semantics (null comparisons are definite false).
        assert sql == '(COALESCE(("units" >= ?), 0))'
        assert params == [3]

    def test_not_equal_sql(self):
        sql, __ = (Attr("units") != 3).to_sql()
        assert "<>" in sql

    def test_and_sql(self):
        sql, params = ((Attr("a") == 1) & (Attr("b") == 2)).to_sql()
        assert sql.count("AND") == 1
        assert params == [1, 2]

    def test_or_not_sql(self):
        sql, __ = (~((Attr("a") == 1) | (Attr("b") == 2))).to_sql()
        assert "NOT" in sql and "OR" in sql

    def test_empty_and_sql(self):
        sql, params = TRUE.to_sql()
        assert sql == "(1 = 1)"
        assert params == []

    def test_is_null_sql(self):
        sql, __ = IsNull(Attr("x")).to_sql()
        assert "IS NULL" in sql


class TestIntrospection:
    def test_attributes(self):
        p = ((Attr("a") == 1) & (Attr("b") == Attr("c"))) | IsNull(Attr("d"))
        assert p.attributes() == frozenset({"a", "b", "c", "d"})

    def test_const_has_no_attributes(self):
        assert Const(5).attributes() == frozenset()

    def test_bad_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("~", Attr("a"), Const(1))
