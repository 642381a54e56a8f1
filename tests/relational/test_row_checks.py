"""A written row is checked at the engine boundary, and only there.

``RelationSchema.validate_row`` accepts a value on its exact type alone
when its attribute takes that type outright; everything else takes the
full check. These tests hold the single pass to its count on the eager
write path and its errors to the classes and messages they always had.
"""

import datetime
import sys

import pytest

from repro.errors import DomainError, SchemaError
from repro.relational.ddl import relation
from repro.relational.domains import DATE, Domain
from repro.relational.operations import Insert, Replace
from repro.relational.schema import Attribute, RelationSchema
from repro.workloads.hospital import hospital_session, new_chart
from tests.conftest import make_engine


def test_eager_chart_rows_are_checked_at_the_engine_boundary(monkeypatch):
    """An inserted row is checked twice (``complete_row``, then the
    engine boundary), a replaced row once (the boundary), and ``Table``
    checks nothing: it stores what ``MemoryEngine`` already checked."""
    session = hospital_session(patients=4)
    calls = {}
    callers = set()
    check = RelationSchema.validate_row

    def counting(schema, values):
        callers.add(sys._getframe(1).f_globals["__name__"])
        row = (schema.name, tuple(values))
        calls[row] = calls.get(row, 0) + 1
        return check(schema, values)

    monkeypatch.setattr(RelationSchema, "validate_row", counting)
    chart = new_chart(5001, "Ada", 1950, "checkup", leaves=("J10", "low", 7, 1.5))
    plan = session.insert("patient_chart", chart)
    inserted = [op for op in plan.operations if isinstance(op, Insert)]
    assert len(inserted) == len(plan.operations) == 5
    assert calls == {(op.relation, tuple(op.values)): 2 for op in inserted}

    calls.clear()
    edited = session.get("patient_chart", (5001,)).to_dict()
    edited["name"] = "Ada L."
    edited["VISIT"][0]["reason"] = "follow-up"
    plan = session.replace("patient_chart", (5001,), edited)
    replaced = [op for op in plan.operations if isinstance(op, Replace)]
    assert len(replaced) == len(plan.operations) == 2
    assert calls == {(op.relation, tuple(op.values)): 1 for op in replaced}
    assert "repro.relational.table" not in callers


class Positive(Domain):
    """A domain whose membership needs the value, not only its type."""

    def __init__(self):
        super().__init__("positive", (int,), int, "INTEGER")
        self.exact_types = frozenset()

    def contains(self, value):
        return super().contains(value) and value > 0


POSITIVE = Positive()

ROWS = (
    relation("T").text("k").integer("n", nullable=True)
    .attribute("d", DATE, nullable=True).key("k").build()
)
CHECKED = RelationSchema("P", [Attribute("k", ROWS.attribute("k").domain),
                               Attribute("p", POSITIVE)], key=("k",))
STAMP = datetime.datetime(1991, 5, 29, 13, 45)

# (relation, row, error class or None, message or stored row)
CASES = [
    ("T", ("a", True, None), DomainError,
     "value True is not in domain 'integer' (T.n)"),
    ("T", ("a", "7", None), DomainError,
     "value '7' is not in domain 'integer' (T.n)"),
    ("T", (None, 1, None), SchemaError,
     "relation 'T': attribute 'k' is not nullable"),
    ("T", ("a", 1), SchemaError, "relation 'T' expects 3 values, got 2"),
    ("P", ("a", 0), DomainError,
     "value 0 is not in domain 'positive' (P.p)"),
    ("P", ("a", 5), None, ("a", 5)),
    ("T", ("a", 1, STAMP), None, ("a", 1, datetime.date(1991, 5, 29))),
    ("T", ("a", 1.0, None), DomainError,
     "value 1.0 is not in domain 'integer' (T.n)"),
]


@pytest.mark.parametrize("verb", ["insert", "replace"])
@pytest.mark.parametrize(
    "name,row,error,expected", CASES,
    ids=["bool-in-integer", "str-in-integer", "null-in-key", "arity",
         "predicate-refuses", "predicate-accepts", "datetime-in-date",
         "float-in-integer"],
)
def test_fast_path_raises_what_the_full_check_raised(
    backend, verb, name, row, error, expected
):
    engine = make_engine(backend)
    engine.create_relation(ROWS)
    engine.create_relation(CHECKED)
    existing = ("a", 1) if name == "P" else ("a", 1, None)
    if verb == "replace":
        engine.insert(name, existing)
    write = (
        (lambda: engine.insert(name, row)) if verb == "insert"
        else (lambda: engine.replace(name, ("a",), row))
    )
    if error is None:
        write()
        stored = engine.get(name, ("a",))
        assert stored == expected
        assert [type(v) for v in stored] == [type(v) for v in expected]
        return
    with pytest.raises(error) as raised:
        write()
    assert str(raised.value) == expected
    assert engine.get(name, ("a",)) == (existing if verb == "replace" else None)
