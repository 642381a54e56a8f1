"""Query-language extensions: IN lists, LIKE patterns, aggregates."""

import pytest

from repro.errors import QueryError, QuerySyntaxError
from repro.core.instance import build_instance
from repro.core.query import execute_query
from repro.core.query.evaluator import evaluate, validate_against
from repro.core.query.parser import parse_query
from repro.core.query.planner import plan_query


@pytest.fixture
def instance(omega):
    return build_instance(
        omega,
        {
            "course_id": "CS145",
            "title": "Database Systems",
            "units": 4,
            "level": "undergraduate",
            "dept_name": "Computer Science",
            "GRADES": [
                {
                    "course_id": "CS145",
                    "student_id": 1,
                    "grade": "A",
                    "STUDENT": [
                        {"person_id": 1, "degree_program": "BSCS", "year": 2}
                    ],
                },
                {
                    "course_id": "CS145",
                    "student_id": 2,
                    "grade": "B",
                    "STUDENT": [
                        {"person_id": 2, "degree_program": "MSCS", "year": 6}
                    ],
                },
            ],
        },
    )


def holds(instance, text):
    return evaluate(parse_query(text), instance)


class TestIn:
    def test_pivot_in(self, instance):
        assert holds(instance, "units in (3, 4, 5)")
        assert not holds(instance, "units in (1, 2)")

    def test_not_in(self, instance):
        assert holds(instance, "units not in (1, 2)")
        assert not holds(instance, "units not in (4)")

    def test_component_in_existential(self, instance):
        assert holds(instance, "GRADES.grade in ('A', 'F')")
        assert not holds(instance, "GRADES.grade in ('F')")

    def test_component_not_in_existential(self, instance):
        # Some grade (B) is not in ('A').
        assert holds(instance, "GRADES.grade not in ('A')")
        assert not holds(instance, "GRADES.grade not in ('A', 'B')")

    def test_mixed_literal_types(self, instance):
        assert holds(instance, "level in ('graduate', 'undergraduate')")

    def test_empty_list_rejected(self, instance):
        with pytest.raises(QuerySyntaxError):
            parse_query("units in ()")


class TestLike:
    def test_prefix(self, instance):
        assert holds(instance, "title like 'Database%'")
        assert not holds(instance, "title like 'Compiler%'")

    def test_suffix_and_infix(self, instance):
        assert holds(instance, "title like '%Systems'")
        assert holds(instance, "title like '%base%'")

    def test_underscore(self, instance):
        assert holds(instance, "course_id like 'CS1__'")
        assert not holds(instance, "course_id like 'CS1_'")

    def test_not_like(self, instance):
        assert holds(instance, "title not like 'X%'")
        assert not holds(instance, "title not like '%'")

    def test_literal_percent_chars_escaped_regex(self, instance):
        # Regex metacharacters in the pattern are literal.
        assert not holds(instance, "title like 'Database (Systems)'")

    def test_like_requires_string(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("title like 42")


class TestAggregates:
    def test_min_max(self, instance):
        assert holds(instance, "min(STUDENT.year) = 2")
        assert holds(instance, "max(STUDENT.year) = 6")

    def test_sum_avg(self, instance):
        assert holds(instance, "sum(STUDENT.year) = 8")
        assert holds(instance, "avg(STUDENT.year) = 4")

    def test_empty_component_is_null(self, omega):
        empty = build_instance(
            omega,
            {
                "course_id": "E1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
            },
        )
        # Aggregate over nothing is null: every comparison is false.
        assert not holds(empty, "max(STUDENT.year) > 0")
        assert not holds(empty, "max(STUDENT.year) <= 0")

    def test_aggregate_validation(self, omega):
        validate_against(parse_query("avg(STUDENT.year) > 1"), omega)
        with pytest.raises(QueryError):
            validate_against(parse_query("avg(STUDENT.gpa) > 1"), omega)

    def test_aggregate_never_pushed(self, university_graph):
        plan = plan_query(
            parse_query("sum(STUDENT.year) > 4"),
            university_graph.relation("COURSES"),
        )
        assert plan.residual is not None


class TestPushdown:
    def test_in_pushed_to_engine(self, omega, university_engine):
        results = execute_query(
            omega,
            university_engine,
            "dept_name in ('Physics', 'Mathematics')",
        )
        for instance in results:
            assert instance.root.values["dept_name"] in (
                "Physics",
                "Mathematics",
            )

    def test_like_pushed_to_engine(self, omega, university_engine):
        results = execute_query(omega, university_engine, "course_id like 'M%'")
        for instance in results:
            assert instance.key[0].startswith("M")

    def test_in_like_on_sqlite(self, omega, university_sqlite):
        memory_style = execute_query(
            omega, university_sqlite, "course_id like 'M%' and units in (3, 4, 5)"
        )
        for instance in memory_style:
            assert instance.key[0].startswith("M")
            assert instance.root.values["units"] in (3, 4, 5)

    def test_not_in_pushed(self, omega, university_engine):
        everything = {i.key for i in execute_query(omega, university_engine, "units >= 0")}
        kept = {
            i.key
            for i in execute_query(
                omega, university_engine, "dept_name not in ('Physics')"
            )
        }
        dropped = {
            i.key
            for i in execute_query(
                omega, university_engine, "dept_name in ('Physics')"
            )
        }
        assert kept | dropped == everything
        assert kept & dropped == set()


class TestRelationalExpressions:
    def test_like_sql(self):
        from repro.relational.expressions import Attr, Like

        sql, params = Like(Attr("title"), "Data%").to_sql()
        assert "LIKE" in sql
        assert params == ["Data%"]

    def test_in_sql(self):
        from repro.relational.expressions import Attr, In

        sql, params = In(Attr("units"), (1, 2)).to_sql()
        assert "IN" in sql and params == [1, 2]

    def test_empty_in_is_false(self):
        from repro.relational.expressions import Attr, In

        expr = In(Attr("units"), ())
        assert not expr.evaluate({"units": 1})
        sql, __ = expr.to_sql()
        assert sql == "(1 = 0)"

    def test_like_null_never_matches(self):
        from repro.relational.expressions import Attr, Like

        assert not Like(Attr("title"), "%").evaluate({"title": None})
