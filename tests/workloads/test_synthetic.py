"""Synthetic chain workload: dialable island depth."""

import pytest

from repro.core.dependency_island import NodeRole, analyze_island
from repro.core.updates.operations import CompleteDeletion
from repro.relational.memory_engine import MemoryEngine
from repro.structural.integrity import IntegrityChecker
from repro.workloads.synthetic import (
    chain_object,
    chain_schema,
    populate_chain,
)
from tests.core.test_dependency_island import with_role


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_island_size_tracks_depth(depth):
    graph = chain_schema(depth=depth)
    view_object = chain_object(graph, depth)
    analysis = analyze_island(view_object)
    assert len(analysis.island_nodes) == depth + 1
    assert with_role(analysis, NodeRole.PENINSULA) == ["PENINSULA"]


def test_row_counts():
    graph = chain_schema(depth=3)
    engine = MemoryEngine()
    graph.install(engine)
    counts = populate_chain(engine, depth=3, roots=4, fanout=2)
    assert counts["R0"] == 4
    assert counts["R1"] == 8
    assert counts["R2"] == 16
    assert counts["R3"] == 32
    assert counts["PENINSULA"] == 8


def test_generated_data_consistent():
    graph = chain_schema(depth=3)
    engine = MemoryEngine()
    graph.install(engine)
    populate_chain(engine, depth=3, roots=3, fanout=2)
    assert IntegrityChecker(graph).is_consistent(engine)


def test_without_optional_relations():
    graph = chain_schema(depth=2, with_peninsula=False, with_lookup=False)
    assert "PENINSULA" not in graph.relation_names
    assert "LOOKUP" not in graph.relation_names
    engine = MemoryEngine()
    graph.install(engine)
    populate_chain(engine, depth=2, roots=2, fanout=2)
    view_object = chain_object(
        graph, 2, with_peninsula=False, with_lookup=False
    )
    assert view_object.complexity == 3


def test_deletion_cascades_full_chain():
    from repro.core.updates.translator import Translator

    graph = chain_schema(depth=3)
    engine = MemoryEngine()
    graph.install(engine)
    populate_chain(engine, depth=3, roots=2, fanout=2)
    view_object = chain_object(graph, 3)
    translator = Translator(view_object)
    translator.apply(engine, CompleteDeletion((0,)), "delete")
    assert engine.find_by("R3", ("k0",), (0,)) == []
    assert engine.find_by("PENINSULA", ("k0",), (0,)) == []
    assert engine.count("R0") == 1
