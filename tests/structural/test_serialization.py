"""Structural-schema serialization round-trips."""

import json

import pytest

from repro.errors import StructuralError
from repro.structural.serialization import (
    graph_from_dict,
    graph_to_dict,
)
from repro.workloads.cad import cad_schema
from repro.workloads.hospital import hospital_schema
from repro.workloads.university import university_schema


@pytest.mark.parametrize(
    "factory", [university_schema, hospital_schema, cad_schema]
)
def test_round_trip(factory):
    original = factory()
    rebuilt = graph_from_dict(graph_to_dict(original))
    assert rebuilt.name == original.name
    assert rebuilt.relation_names == original.relation_names
    assert len(rebuilt.connections) == len(original.connections)
    for connection in original.connections:
        clone = rebuilt.connection(connection.name)
        assert clone.kind == connection.kind
        assert clone.source == connection.source
        assert clone.target == connection.target
        assert clone.source_attributes == connection.source_attributes


def test_json_round_trip():
    original = university_schema()
    text = json.dumps(graph_to_dict(original))
    rebuilt = graph_from_dict(json.loads(text))
    assert rebuilt.relation_names == original.relation_names


def test_rebuilt_graph_validates_connections():
    """Deserialization re-runs Definition 2.2-2.4 validation."""
    data = graph_to_dict(university_schema())
    for connection in data["connections"]:
        if connection["name"] == "courses_grades":
            connection["source_attributes"] = ["title"]  # not K(COURSES)
    from repro.errors import ConnectionError

    with pytest.raises(ConnectionError):
        graph_from_dict(data)


def test_bad_format():
    with pytest.raises(StructuralError):
        graph_from_dict({"format": 0})


def test_rebuilt_graph_supports_full_pipeline():
    """Schema → objects → data, all from serialized state."""
    from repro.core.serialization import view_object_from_dict, view_object_to_dict
    from repro.relational.memory_engine import MemoryEngine
    from repro.relational.persistence import dump_database, load_database
    from repro.workloads.figures import course_info_object
    from repro.workloads.university import populate_university

    graph = university_schema()
    engine = MemoryEngine()
    graph.install(engine)
    populate_university(engine)
    omega = course_info_object(graph)

    # Serialize everything...
    stored_graph = graph_to_dict(graph)
    stored_object = view_object_to_dict(omega)
    stored_data = dump_database(engine)

    # ...and reconstruct a working session from the stored state alone.
    graph2 = graph_from_dict(stored_graph)
    engine2 = MemoryEngine()
    load_database(engine2, stored_data)
    omega2 = view_object_from_dict(graph2, stored_object)

    from repro.core.query import execute_query

    results = execute_query(
        omega2, engine2, "level = 'graduate' and count(STUDENT) < 5"
    )
    assert len(results) == 1
