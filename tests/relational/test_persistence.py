"""Database dump/load round-trips on both backends."""

import datetime
import json

import pytest

from repro.errors import SchemaError
from repro.relational.ddl import relation
from repro.relational.persistence import (
    dump_database,
    load_database,
    schema_from_dict,
    schema_to_dict,
)
from repro.relational.domains import BOOLEAN, DATE
from tests.conftest import make_engine


@pytest.fixture
def engine(backend):
    engine = make_engine(backend)
    engine.create_relation(
        relation("T")
        .text("k")
        .integer("n", nullable=True)
        .attribute("flag", BOOLEAN, nullable=True)
        .attribute("d", DATE, nullable=True)
        .key("k")
        .build()
    )
    engine.insert("T", ("a", 1, True, datetime.date(1991, 5, 29)))
    engine.insert("T", ("b", None, None, None))
    return engine


def test_schema_round_trip(engine):
    schema = engine.schema("T")
    assert schema_from_dict(schema_to_dict(schema)) == schema


def test_dump_is_json_safe(engine):
    json.dumps(dump_database(engine))


def test_round_trip_same_backend(engine, backend):
    dumped = json.dumps(dump_database(engine))
    fresh = make_engine(backend)
    counts = load_database(fresh, json.loads(dumped))
    assert counts == {"T": 2}
    assert sorted(fresh.scan("T")) == sorted(engine.scan("T"))


def test_cross_backend_round_trip(engine, backend):
    other = "sqlite" if backend == "memory" else "memory"
    dumped = dump_database(engine)
    fresh = make_engine(other)
    load_database(fresh, dumped)
    assert sorted(fresh.scan("T")) == sorted(engine.scan("T"))


def test_date_survives(engine, backend):
    fresh = make_engine(backend)
    load_database(fresh, dump_database(engine))
    assert fresh.get("T", ("a",))[3] == datetime.date(1991, 5, 29)


def test_bad_format(backend):
    fresh = make_engine(backend)
    with pytest.raises(SchemaError):
        load_database(fresh, {"format": 99})


def test_university_round_trip():
    from repro.structural.integrity import IntegrityChecker
    from repro.workloads.university import (
        populate_university,
        university_schema,
    )

    graph = university_schema()
    engine = make_engine("memory")
    graph.install(engine)
    populate_university(engine)
    fresh = make_engine("memory")
    counts = load_database(fresh, dump_database(engine))
    assert counts["GRADES"] == engine.count("GRADES")
    assert IntegrityChecker(graph).is_consistent(fresh)
