"""Query planner: pushdown of pivot-only conjuncts."""

from repro.core.query.ast import QAnd
from repro.core.query.parser import parse_query
from repro.core.query.planner import plan_query
from repro.relational.expressions import TRUE
from repro.workloads.university import university_schema

COURSES = university_schema().relation("COURSES")


def plan_text(text):
    return plan_query(parse_query(text), COURSES)


def test_all_pushed():
    plan = plan_text("level = 'graduate' and units > 3")
    assert plan.residual is None
    assert plan.pushed.evaluate({"level": "graduate", "units": 4})
    assert not plan.pushed.evaluate({"level": "graduate", "units": 2})


def test_count_not_pushed():
    plan = plan_text("count(STUDENT) < 5")
    assert plan.pushed is TRUE or plan.pushed.evaluate({})
    assert plan.residual is not None


def test_mixed_split():
    plan = plan_text("level = 'graduate' and count(STUDENT) < 5")
    assert plan.residual is not None
    assert plan.pushed.evaluate({"level": "graduate"})
    assert not plan.pushed.evaluate({"level": "undergraduate"})


def test_component_attribute_not_pushed():
    plan = plan_text("STUDENT.year > 2")
    assert plan.residual is not None


def test_or_with_component_not_pushed():
    plan = plan_text("level = 'x' or STUDENT.year > 2")
    # The whole disjunction is one conjunct; it touches a component.
    assert plan.residual is not None
    assert plan.pushed.evaluate({})


def test_pivot_only_or_pushed():
    plan = plan_text("level = 'a' or level = 'b'")
    assert plan.residual is None
    assert plan.pushed.evaluate({"level": "b"})


def test_is_null_pushed():
    plan = plan_text("instructor_id is null")
    assert plan.residual is None
    assert plan.pushed.evaluate({"instructor_id": None})
    assert not plan.pushed.evaluate({"instructor_id": 7})


def test_not_pushed_down():
    plan = plan_text("not level = 'graduate'")
    assert plan.residual is None
    assert plan.pushed.evaluate({"level": "undergraduate"})


def test_multiple_residuals_conjunction():
    plan = plan_text("count(A) > 1 and count(B) > 2 and level = 'x'")
    assert isinstance(plan.residual, QAnd)
    assert len(plan.residual.parts) == 2
