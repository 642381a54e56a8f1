"""Flat relational views: definition and materialization."""

import pytest

from repro.errors import SchemaError
from repro.keller.views import JoinEdge, RelationalView
from repro.relational.expressions import Attr


@pytest.fixture
def view():
    return RelationalView(
        "course_dept",
        ["COURSES", "DEPARTMENT"],
        [JoinEdge("COURSES", "DEPARTMENT", [("dept_name", "dept_name")])],
        selection=Attr("COURSES.level") == "graduate",
        projection=[
            "COURSES.course_id",
            "COURSES.title",
            "DEPARTMENT.dept_name",
            "DEPARTMENT.building",
        ],
    )


def test_anchor(view):
    assert view.anchor == "COURSES"


def test_materialize_joins_correctly(view, university_engine):
    rows = view.materialize(university_engine).mappings()
    assert rows
    for row in rows:
        course = university_engine.get(
            "COURSES", (row["COURSES.course_id"],)
        )
        assert course[4] == row["DEPARTMENT.dept_name"]


def test_selection_applied(view, university_engine):
    for row in view.materialize(university_engine).mappings():
        course = university_engine.get(
            "COURSES", (row["COURSES.course_id"],)
        )
        assert course[3] == "graduate"


def test_projection_applied(view, university_engine):
    result = view.materialize(university_engine)
    assert result.schema.attribute_names == (
        "COURSES.course_id",
        "COURSES.title",
        "DEPARTMENT.dept_name",
        "DEPARTMENT.building",
    )


def test_unprojected_view(university_engine):
    view = RelationalView(
        "all_courses",
        ["COURSES"],
        selection=Attr("COURSES.units") >= 3,
    )
    rows = view.tuples(university_engine)
    expected = [
        v for v in university_engine.scan("COURSES") if v[2] >= 3
    ]
    assert len(rows) == len(expected)


def test_three_way_join(university_engine):
    view = RelationalView(
        "grades_full",
        ["GRADES", "COURSES", "STUDENT"],
        [
            JoinEdge("GRADES", "COURSES", [("course_id", "course_id")]),
            JoinEdge("GRADES", "STUDENT", [("student_id", "person_id")]),
        ],
        projection=[
            "GRADES.course_id",
            "GRADES.student_id",
            "COURSES.title",
            "STUDENT.degree_program",
        ],
    )
    rows = view.tuples(university_engine)
    assert len(rows) == university_engine.count("GRADES")


def test_disconnected_join_rejected():
    with pytest.raises(SchemaError, match="not\\s+connected"):
        RelationalView("bad", ["COURSES", "DEPARTMENT"], [])


def test_empty_view_rejected():
    with pytest.raises(SchemaError):
        RelationalView("bad", [])
