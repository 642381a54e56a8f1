"""Property tests on the query language: generated ASTs behave sanely."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query.ast import QNot
from repro.core.query.evaluator import evaluate
from repro.core.query.parser import parse_query
from repro.core.query.planner import plan_query
from repro.core.instance import build_instance
from repro.workloads.figures import course_info_object
from repro.workloads.university import university_schema

GRAPH = university_schema()
OMEGA = course_info_object(GRAPH)
PIVOT = GRAPH.relation(OMEGA.pivot_relation)


def make_instance(units, level, n_grades):
    return build_instance(
        OMEGA,
        {
            "course_id": "P1",
            "title": "t",
            "units": units,
            "level": level,
            "dept_name": "Physics",
            "GRADES": [
                {
                    "course_id": "P1",
                    "student_id": index,
                    "grade": "A",
                    "STUDENT": [
                        {
                            "person_id": index,
                            "degree_program": "X",
                            "year": index % 6 + 1,
                        }
                    ],
                }
                for index in range(n_grades)
            ],
        },
    )


comparisons = st.sampled_from(
    [
        "units = {n}",
        "units < {n}",
        "units >= {n}",
        "level = 'graduate'",
        "count(GRADES) = {n}",
        "count(STUDENT) < {n}",
        "STUDENT.year > {n}",
        "GRADES.grade = 'A'",
    ]
).flatmap(
    lambda template: st.integers(min_value=0, max_value=6).map(
        lambda n: template.format(n=n)
    )
)


@st.composite
def query_texts(draw, depth=2):
    if depth == 0:
        return draw(comparisons)
    kind = draw(st.sampled_from(["leaf", "and", "or", "not", "paren"]))
    if kind == "leaf":
        return draw(comparisons)
    if kind == "not":
        return "not " + draw(query_texts(depth=depth - 1))
    if kind == "paren":
        return "(" + draw(query_texts(depth=depth - 1)) + ")"
    connective = " and " if kind == "and" else " or "
    left = draw(query_texts(depth=depth - 1))
    right = draw(query_texts(depth=depth - 1))
    return left + connective + right


@given(
    text=query_texts(),
    units=st.integers(min_value=0, max_value=6),
    level=st.sampled_from(["graduate", "undergraduate"]),
    n_grades=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=150, deadline=None)
def test_evaluation_total_and_boolean(text, units, level, n_grades):
    """Every generated query parses and evaluates to a bool."""
    instance = make_instance(units, level, n_grades)
    ast = parse_query(text)
    result = evaluate(ast, instance)
    assert isinstance(result, bool)


@given(
    text=query_texts(),
    units=st.integers(min_value=0, max_value=6),
    level=st.sampled_from(["graduate", "undergraduate"]),
    n_grades=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=150, deadline=None)
def test_negation_flips(text, units, level, n_grades):
    instance = make_instance(units, level, n_grades)
    ast = parse_query(text)
    assert evaluate(QNot(ast), instance) == (not evaluate(ast, instance))


@given(
    text=query_texts(),
    units=st.integers(min_value=0, max_value=6),
    n_grades=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_planner_split_preserves_semantics(text, units, n_grades):
    """pushed(pivot_row) AND residual(instance) == full(instance)."""
    instance = make_instance(units, "graduate", n_grades)
    ast = parse_query(text)
    plan = plan_query(ast, PIVOT)
    pushed_holds = plan.pushed.evaluate(instance.root.values)
    residual_holds = (
        True if plan.residual is None else evaluate(plan.residual, instance)
    )
    assert (pushed_holds and residual_holds) == evaluate(ast, instance)


@given(text=query_texts())
@settings(max_examples=150, deadline=None)
def test_parse_is_deterministic(text):
    assert repr(parse_query(text)) == repr(parse_query(text))
