"""Schema builder."""

import pytest

from repro.errors import SchemaError
from repro.relational.ddl import relation
from repro.relational.domains import BOOLEAN, DATE, INTEGER, REAL, TEXT


def test_builder_all_types():
    schema = (
        relation("R")
        .text("a")
        .integer("b")
        .real("c", nullable=True)
        .attribute("d", BOOLEAN, nullable=True)
        .attribute("e", DATE, nullable=True)
        .key("a", "b")
        .build()
    )
    assert schema.key == ("a", "b")
    assert schema.attribute("a").domain == TEXT
    assert schema.attribute("b").domain == INTEGER
    assert schema.attribute("c").domain == REAL
    assert schema.attribute("d").domain == BOOLEAN
    assert schema.attribute("e").domain == DATE
    assert schema.attribute("c").nullable


def test_builder_requires_key():
    with pytest.raises(SchemaError):
        relation("R").text("a").build()


def test_builder_rejects_double_key():
    with pytest.raises(SchemaError):
        relation("R").text("a").key("a").key("a")
