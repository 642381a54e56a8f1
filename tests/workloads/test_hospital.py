"""Hospital workload: schema, generator, chart object."""


from repro.relational.memory_engine import MemoryEngine
from repro.structural.connections import ConnectionKind
from repro.structural.integrity import IntegrityChecker
from repro.workloads.hospital import HospitalConfig, hospital_schema, populate_hospital
from tests.conftest import sized


def test_ownership_chain(hospital_graph):
    assert (
        hospital_graph.connection("patient_visits").kind
        is ConnectionKind.OWNERSHIP
    )
    owned_by_visit = {
        c.target
        for c in hospital_graph.connections_from(
            "VISIT", ConnectionKind.OWNERSHIP
        )
    }
    assert owned_by_visit == {"DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT"}


def test_generated_data_consistent(hospital_graph, hospital_engine):
    assert IntegrityChecker(hospital_graph).is_consistent(hospital_engine)


def test_generator_deterministic():
    graph = hospital_schema()
    first, second = MemoryEngine(), MemoryEngine()
    hospital_schema().install(first)
    hospital_schema().install(second)
    populate_hospital(first)
    populate_hospital(second)
    assert sorted(first.scan("VISIT")) == sorted(second.scan("VISIT"))


def test_config_scales(hospital_graph):
    engine = MemoryEngine()
    hospital_graph.install(engine)
    counts = populate_hospital(
        engine, sized(HospitalConfig(patients=5), visits_per_patient=2)
    )
    assert counts["PATIENT"] == 5
    assert counts["VISIT"] == 10


def test_chart_object_shape(chart):
    assert chart.pivot_relation == "PATIENT"
    assert chart.complexity == 7
    assert chart.tree.parent("DIAGNOSIS").relation == "VISIT"
    assert chart.tree.parent("MEDICATION").relation == "PRESCRIPTION"
