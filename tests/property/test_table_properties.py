"""Property tests: the in-memory table against a model dictionary.

A :class:`Table` must behave exactly like ``dict[key, row]`` under any
interleaving of inserts, deletes, and replaces, and its secondary
indexes must always agree with a full scan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, NoSuchRowError
from repro.relational.domains import INTEGER, TEXT
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table


def make_table(indexed=True):
    schema = RelationSchema(
        "T",
        [
            Attribute("k", INTEGER),
            Attribute("group", TEXT),
            Attribute("n", INTEGER, nullable=True),
        ],
        key=("k",),
    )
    table = Table(schema)
    if indexed:
        table.create_index(("group",))
    return table


operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(min_value=0, max_value=9),       # key
        st.sampled_from(["a", "b", "c"]),            # group
        st.one_of(st.none(), st.integers(-5, 5)),    # n
    ),
    max_size=60,
)


@given(operations)
@settings(max_examples=200, deadline=None)
def test_table_matches_model_dict(ops):
    table = make_table()
    model = {}
    for kind, key, group, n in ops:
        row = (key, group, n)
        if kind == "insert":
            if key in model:
                with pytest.raises(DuplicateKeyError):
                    table.insert(row)
            else:
                table.insert(row)
                model[key] = row
        elif kind == "delete":
            if key in model:
                table.delete((key,))
                del model[key]
            else:
                with pytest.raises(NoSuchRowError):
                    table.delete((key,))
        else:  # replace (nonkey here: same key)
            if key in model:
                table.replace((key,), row)
                model[key] = row
            else:
                with pytest.raises(NoSuchRowError):
                    table.replace((key,), row)
    assert sorted(table.scan()) == sorted(model.values())
    assert len(table) == len(model)


@given(operations)
@settings(max_examples=100, deadline=None)
def test_index_agrees_with_scan(ops):
    table = make_table()
    for kind, key, group, n in ops:
        row = (key, group, n)
        try:
            if kind == "insert":
                table.insert(row)
            elif kind == "delete":
                table.delete((key,))
            else:
                table.replace((key,), row)
        except (DuplicateKeyError, NoSuchRowError):
            continue
    for group in ("a", "b", "c"):
        via_index = table.find_by(("group",), (group,))
        via_scan = sorted(v for v in table.scan() if v[1] == group)
        assert via_index == via_scan


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_key_changing_replace_preserves_cardinality(moves):
    """A successful key-changing replace never changes the row count."""
    table = make_table(indexed=False)
    for key in range(10):
        table.insert((key, "a", None))
    for old_key, new_key in moves:
        before = len(table)
        try:
            table.replace((old_key,), (new_key, "b", None))
        except (DuplicateKeyError, NoSuchRowError):
            pass
        assert len(table) == before
