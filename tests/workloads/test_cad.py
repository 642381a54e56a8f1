"""CAD workload: schema, generator, BOM object."""

from repro.relational.memory_engine import MemoryEngine
from repro.structural.connections import ConnectionKind
from repro.structural.integrity import IntegrityChecker
from repro.workloads.cad import cad_schema, populate_cad


def test_subset_connection(cad_graph):
    connection = cad_graph.connection("assembly_released")
    assert connection.kind is ConnectionKind.SUBSET
    assert connection.source == "ASSEMBLY"


def test_generated_data_consistent(cad_graph, cad_engine):
    assert IntegrityChecker(cad_graph).is_consistent(cad_engine)


def test_generator_deterministic():
    first, second = MemoryEngine(), MemoryEngine()
    cad_schema().install(first)
    cad_schema().install(second)
    populate_cad(first)
    populate_cad(second)
    assert sorted(first.scan("COMPONENT")) == sorted(second.scan("COMPONENT"))


def test_config_scales(cad_graph):
    engine = MemoryEngine()
    cad_graph.install(engine)
    counts = populate_cad(engine)
    assert counts["ASSEMBLY"] == 12
    assert counts["COMPONENT"] == 12 * 6


def test_bom_object_shape(bom):
    assert bom.pivot_relation == "ASSEMBLY"
    assert bom.complexity == 5
    assert bom.tree.parent("MATERIAL").relation == "PART"
