"""One predicate, one answer: kernel ≡ oracle ≡ sqlite.

Whatever predicate the query planner pushes down, the compiled kernel
(``Expression.bind`` — what every scan-based engine filters with), its
by-name spelling (``Expression.evaluate``), the interpreted walk it
replaced (``tests/reference_predicate.py``) and sqlite's SQL evaluation
must select the same rows — including LIKE case sensitivity and null
semantics, and through a write overlay with pending inserts and
tombstones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.updates.bulk import BufferedEngine
from repro.relational.ddl import relation
from repro.relational.expressions import (
    And,
    Attr,
    Comparison,
    Const,
    In,
    IsNull,
    Like,
    Not,
    Or,
)
from repro.relational.memory_engine import MemoryEngine
from repro.relational.sqlite_engine import SqliteEngine
from tests.reference_predicate import reference_evaluate

SCHEMA = (
    relation("T")
    .text("k")
    .text("title", nullable=True)
    .integer("units", nullable=True)
    .integer("cap", nullable=True)
    .text("alias", nullable=True)
    .key("k")
    .build()
)

ROWS = [
    ("r1", "Databases", 4, 4, "Databases"),
    ("r2", "databases", 3, 5, "Databases"),
    ("r3", "Data Mining", None, 2, None),
    ("r4", "Operating Systems", 2, None, "OS"),
    ("r5", "data", 5, 1, "data"),
    ("r6", "D_TA", 1, 1, None),
    ("r7", None, None, None, None),
    ("r8", None, 3, None, "databases"),
    ("r9", None, None, 3, None),
]

# What a batch in flight lays over the base: two pending inserts, one
# replaced row, two tombstones.
PENDING = [("p1", "Data%", 0, None, None), ("p2", None, 6, 6, "data")]
REPLACED = ("r2", None, 4, 3, "databases")
DELETED = ["r5", "r7"]


def build(engine):
    engine.create_relation(SCHEMA)
    for row in ROWS:
        engine.insert("T", row)
    return engine


def overlay(base):
    buffered = BufferedEngine(base)
    for row in PENDING:
        buffered.insert("T", row)
    buffered.replace("T", REPLACED[:1], REPLACED)
    for key in DELETED:
        buffered.delete("T", (key,))
    return buffered


@pytest.fixture(scope="module")
def engines():
    return build(MemoryEngine()), build(SqliteEngine())


OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
integers = st.integers(min_value=0, max_value=6)
texts = st.sampled_from(["data", "Databases", "databases", "OS", ""])


def comparisons(left, right):
    return st.builds(Comparison, st.sampled_from(OPERATORS), left, right)


leaf_predicates = st.one_of(
    st.sampled_from(["Data%", "%data%", "data", "D_ta%", "%s", "_ata%", "%"]).map(
        lambda pattern: Like(Attr("title"), pattern)
    ),
    st.lists(integers, min_size=0, max_size=4).map(
        lambda values: In(Attr("units"), values)
    ),
    st.sampled_from([IsNull(Attr("units")), IsNull(Attr("title")), And(), Or()]),
    # attribute vs constant, either side, including the null constant
    comparisons(st.just(Attr("units")), integers.map(Const)),
    comparisons(integers.map(Const), st.just(Attr("cap"))),
    comparisons(st.just(Attr("title")), texts.map(Const)),
    comparisons(texts.map(Const), st.just(Attr("alias"))),
    comparisons(st.sampled_from([Attr("units"), Attr("title")]), st.just(Const(None))),
    comparisons(st.just(Const(None)), st.sampled_from([Attr("cap"), Attr("alias")])),
    # attribute vs attribute
    comparisons(st.just(Attr("units")), st.just(Attr("cap"))),
    comparisons(st.just(Attr("title")), st.just(Attr("alias"))),
)

simple_predicates = st.one_of(leaf_predicates, leaf_predicates.map(Not))


@st.composite
def predicates(draw, depth=2):
    if depth == 0:
        return draw(simple_predicates)
    kind = draw(st.sampled_from(["leaf", "and", "or", "not"]))
    if kind == "leaf":
        return draw(simple_predicates)
    if kind == "not":
        return Not(draw(predicates(depth=depth - 1)))
    parts = draw(st.lists(predicates(depth=depth - 1), min_size=1, max_size=3))
    return And(*parts) if kind == "and" else Or(*parts)


def keys(rows):
    return {row[0] for row in rows}


def by_oracle(engine, predicate):
    return keys(
        values
        for values in engine.scan("T")
        if reference_evaluate(predicate, SCHEMA.as_mapping(values))
    )


@given(predicate=predicates())
@settings(max_examples=300, deadline=None)
def test_select_parity(engines, predicate):
    memory, sqlite = engines
    expected = by_oracle(memory, predicate)
    assert keys(memory.select("T", predicate)) == expected
    assert keys(sqlite.select("T", predicate)) == expected


@given(predicate=predicates())
@settings(max_examples=300, deadline=None)
def test_evaluate_and_bind_are_one_kernel(predicate):
    test = predicate.bind(SCHEMA)
    for values in ROWS + PENDING + [REPLACED]:
        mapping = SCHEMA.as_mapping(values)
        assert test(values) == predicate.evaluate(mapping)
        assert bool(test(values)) == bool(reference_evaluate(predicate, mapping))


@given(predicate=predicates())
@settings(max_examples=200, deadline=None)
def test_select_parity_through_a_write_overlay(engines, predicate):
    """Pending inserts are selected, tombstoned and replaced base rows
    are not — the overlay filters its own scan with the same kernel."""
    over_memory, over_sqlite = (overlay(engine) for engine in engines)
    expected = by_oracle(over_memory, predicate)
    assert expected <= keys(ROWS + PENDING) - set(DELETED)
    assert keys(over_memory.select("T", predicate)) == expected
    assert keys(over_sqlite.select("T", predicate)) == expected



def test_like_is_case_sensitive_on_both(engines):
    memory, sqlite = engines
    predicate = Like(Attr("title"), "Data%")
    for engine in engines:
        keys = {row[0] for row in engine.select("T", predicate)}
        assert keys == {"r1", "r3"}  # not the lowercase ones


def test_underscore_wildcard_parity(engines):
    predicate = Like(Attr("title"), "D_TA")
    for engine in engines:
        keys = {row[0] for row in engine.select("T", predicate)}
        assert keys == {"r6"}
