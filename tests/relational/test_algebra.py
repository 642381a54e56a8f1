"""Relational algebra over derived relations."""

import pytest

from repro.relational import algebra
from repro.relational.domains import INTEGER, TEXT
from repro.relational.expressions import Attr
from repro.relational.memory_engine import MemoryEngine
from repro.relational.schema import Attribute, RelationSchema


@pytest.fixture
def engine():
    engine = MemoryEngine()
    engine.create_relation(
        RelationSchema(
            "COURSES",
            [
                Attribute("course_id", TEXT),
                Attribute("dept", TEXT),
                Attribute("units", INTEGER),
            ],
            key=("course_id",),
        )
    )
    engine.create_relation(
        RelationSchema(
            "DEPT",
            [Attribute("dept", TEXT), Attribute("building", TEXT)],
            key=("dept",),
        )
    )
    engine.insert("COURSES", ("CS1", "cs", 3))
    engine.insert("COURSES", ("CS2", "cs", 4))
    engine.insert("COURSES", ("M1", "math", 4))
    engine.insert("DEPT", ("cs", "Gates"))
    engine.insert("DEPT", ("math", "Sloan"))
    return engine


def test_from_engine(engine):
    rel = algebra.from_engine(engine, "COURSES")
    assert len(rel) == 3


def test_select(engine):
    rel = algebra.from_engine(engine, "COURSES")
    assert len(algebra.select(rel, Attr("units") == 4)) == 2


def test_project_dedupes(engine):
    rel = algebra.from_engine(engine, "COURSES")
    projected = algebra.project(rel, ("dept",))
    assert sorted(projected.tuples) == [("cs",), ("math",)]


def test_project_key_preserved(engine):
    rel = algebra.from_engine(engine, "COURSES")
    projected = algebra.project(rel, ("course_id", "units"))
    assert projected.schema.key == ("course_id",)


def test_rename(engine):
    rel = algebra.from_engine(engine, "COURSES")
    renamed = algebra.rename(rel, {"dept": "department"})
    assert "department" in renamed.schema.attribute_names
    assert "dept" not in renamed.schema.attribute_names


def test_join(engine):
    courses = algebra.from_engine(engine, "COURSES")
    depts = algebra.from_engine(engine, "DEPT")
    joined = algebra.join(courses, depts, on=[("dept", "dept")])
    assert len(joined) == 3
    mapping = joined.mappings()[0]
    assert "building" in mapping


def test_join_prefixes_clashing_names(engine):
    courses = algebra.from_engine(engine, "COURSES")
    depts = algebra.from_engine(engine, "DEPT")
    joined = algebra.join(courses, depts, on=[("dept", "dept")])
    assert "DEPT.dept" in joined.schema.attribute_names


def test_join_null_never_matches(engine):
    schema = RelationSchema(
        "X",
        [Attribute("k", TEXT), Attribute("dept", TEXT, nullable=True)],
        key=("k",),
    )
    left = algebra.DerivedRelation(schema, [("a", None)])
    depts = algebra.from_engine(engine, "DEPT")
    joined = algebra.join(left, depts, on=[("dept", "dept")])
    assert len(joined) == 0
