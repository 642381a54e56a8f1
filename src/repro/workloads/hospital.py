"""A hospital patient-record database.

The paper's work was funded by the National Library of Medicine; the
authors' motivating domain was medical records, where a patient's chart
is the archetypal complex object: visits, diagnoses, prescriptions, and
lab results all hang off the patient. This workload exercises deeper
dependency islands than the university schema — the patient-chart view
object has a three-level ownership chain.

Schema:

* ``PATIENT --* VISIT --* DIAGNOSIS / PRESCRIPTION / LAB_RESULT``
  (ownership chains: a chart component cannot outlive its visit);
* ``VISIT --> PHYSICIAN`` (reference: the attending physician);
* ``PRESCRIPTION --> MEDICATION`` (reference);
* ``PATIENT --> WARD`` (nullable reference: current ward, if admitted).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple

from repro.core.view_object import ViewObjectDefinition, define_view_object
from repro.relational.ddl import relation
from repro.relational.engine import Engine
from repro.structural.schema_graph import StructuralSchema

__all__ = [
    "hospital_schema",
    "populate_hospital",
    "patient_chart_object",
    "HospitalConfig",
    "new_chart",
    "rehome",
    "hospital_session",
    "restarted",
]

_WARDS = [("East-1", 1), ("East-2", 2), ("West-1", 1), ("ICU", 3)]
_SPECIALTIES = ["cardiology", "oncology", "internal", "surgery", "neurology"]
_DIAGNOSES = [
    "hypertension", "diabetes", "influenza", "fracture", "migraine",
    "anemia", "asthma", "arrhythmia",
]
_MEDICATIONS = [
    ("MED-01", "aspirin", 81), ("MED-02", "metformin", 500),
    ("MED-03", "lisinopril", 10), ("MED-04", "atorvastatin", 20),
    ("MED-05", "amoxicillin", 250), ("MED-06", "ibuprofen", 200),
]
_TESTS = ["CBC", "BMP", "lipid panel", "A1C", "urinalysis", "ECG"]


def hospital_schema() -> StructuralSchema:
    """Build the hospital structural schema."""
    graph = StructuralSchema("hospital")
    graph.add_relation(
        relation("WARD")
        .text("ward_name")
        .integer("floor")
        .key("ward_name")
        .build()
    )
    graph.add_relation(
        relation("PHYSICIAN")
        .integer("physician_id")
        .text("name", nullable=True)
        .text("specialty", nullable=True)
        .key("physician_id")
        .build()
    )
    graph.add_relation(
        relation("PATIENT")
        .integer("patient_id")
        .text("name", nullable=True)
        .integer("birth_year", nullable=True)
        .text("ward_name", nullable=True)
        .key("patient_id")
        .build()
    )
    graph.add_relation(
        relation("VISIT")
        .integer("patient_id")
        .integer("visit_no")
        .text("visit_date")
        .integer("physician_id")
        .text("reason", nullable=True)
        .key("patient_id", "visit_no")
        .build()
    )
    graph.add_relation(
        relation("DIAGNOSIS")
        .integer("patient_id")
        .integer("visit_no")
        .integer("diag_no")
        .text("code")
        .text("severity", nullable=True)
        .key("patient_id", "visit_no", "diag_no")
        .build()
    )
    graph.add_relation(
        relation("MEDICATION")
        .text("med_id")
        .text("name", nullable=True)
        .integer("dose_mg", nullable=True)
        .key("med_id")
        .build()
    )
    graph.add_relation(
        relation("PRESCRIPTION")
        .integer("patient_id")
        .integer("visit_no")
        .integer("rx_no")
        .text("med_id")
        .integer("days")
        .key("patient_id", "visit_no", "rx_no")
        .build()
    )
    graph.add_relation(
        relation("LAB_RESULT")
        .integer("patient_id")
        .integer("visit_no")
        .integer("test_no")
        .text("test_name")
        .real("value", nullable=True)
        .key("patient_id", "visit_no", "test_no")
        .build()
    )

    graph.reference(
        "patient_ward", "PATIENT", "WARD", ["ward_name"], ["ward_name"]
    )
    graph.ownership(
        "patient_visits", "PATIENT", "VISIT", ["patient_id"], ["patient_id"]
    )
    graph.reference(
        "visit_physician", "VISIT", "PHYSICIAN",
        ["physician_id"], ["physician_id"],
    )
    graph.ownership(
        "visit_diagnoses", "VISIT", "DIAGNOSIS",
        ["patient_id", "visit_no"], ["patient_id", "visit_no"],
    )
    graph.ownership(
        "visit_prescriptions", "VISIT", "PRESCRIPTION",
        ["patient_id", "visit_no"], ["patient_id", "visit_no"],
    )
    graph.reference(
        "prescription_medication", "PRESCRIPTION", "MEDICATION",
        ["med_id"], ["med_id"],
    )
    graph.ownership(
        "visit_labs", "VISIT", "LAB_RESULT",
        ["patient_id", "visit_no"], ["patient_id", "visit_no"],
    )
    return graph


class HospitalConfig:
    """Sizing of the deterministic generator: the patient count is the
    one knob; the rest are constants a test may set on one instance."""

    PHYSICIANS = 8
    VISITS_PER_PATIENT = 3
    SEED = 4836  # the NLM grant number's tail

    def __init__(self, patients: int = 25) -> None:
        self.patients = patients


def populate_hospital(
    engine: Engine, config: Optional[HospitalConfig] = None
) -> Dict[str, int]:
    """Deterministically fill an installed hospital database."""
    config = config or HospitalConfig()
    rng = random.Random(config.SEED)

    for ward_name, floor in _WARDS:
        engine.insert("WARD", {"ward_name": ward_name, "floor": floor})
    for med_id, name, dose in _MEDICATIONS:
        engine.insert(
            "MEDICATION", {"med_id": med_id, "name": name, "dose_mg": dose}
        )
    physician_ids = []
    for index in range(config.PHYSICIANS):
        pid = 9000 + index
        engine.insert(
            "PHYSICIAN",
            {
                "physician_id": pid,
                "name": f"Dr. #{pid}",
                "specialty": rng.choice(_SPECIALTIES),
            },
        )
        physician_ids.append(pid)

    for index in range(config.patients):
        patient_id = 100 + index
        engine.insert(
            "PATIENT",
            {
                "patient_id": patient_id,
                "name": f"Patient #{patient_id}",
                "birth_year": rng.randint(1930, 2010),
                "ward_name": rng.choice([w[0] for w in _WARDS] + [None]),
            },
        )
        for visit_no in range(1, config.VISITS_PER_PATIENT + 1):
            engine.insert(
                "VISIT",
                {
                    "patient_id": patient_id,
                    "visit_no": visit_no,
                    "visit_date": f"199{rng.randint(0, 1)}-"
                    f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    "physician_id": rng.choice(physician_ids),
                    "reason": rng.choice(_DIAGNOSES),
                },
            )
            for diag_no in range(1, rng.randint(1, 3) + 1):
                engine.insert(
                    "DIAGNOSIS",
                    {
                        "patient_id": patient_id,
                        "visit_no": visit_no,
                        "diag_no": diag_no,
                        "code": rng.choice(_DIAGNOSES),
                        "severity": rng.choice(["mild", "moderate", "severe"]),
                    },
                )
            for rx_no in range(1, rng.randint(0, 2) + 1):
                engine.insert(
                    "PRESCRIPTION",
                    {
                        "patient_id": patient_id,
                        "visit_no": visit_no,
                        "rx_no": rx_no,
                        "med_id": rng.choice(_MEDICATIONS)[0],
                        "days": rng.randint(5, 30),
                    },
                )
            for test_no in range(1, rng.randint(0, 3) + 1):
                engine.insert(
                    "LAB_RESULT",
                    {
                        "patient_id": patient_id,
                        "visit_no": visit_no,
                        "test_no": test_no,
                        "test_name": rng.choice(_TESTS),
                        "value": round(rng.uniform(0.5, 200.0), 1),
                    },
                )
    return {
        name: engine.count(name)
        for name in (
            "WARD",
            "PHYSICIAN",
            "PATIENT",
            "VISIT",
            "DIAGNOSIS",
            "MEDICATION",
            "PRESCRIPTION",
            "LAB_RESULT",
        )
    }


def patient_chart_object(graph: StructuralSchema) -> ViewObjectDefinition:
    """The patient-chart view object: a three-level dependency island.

    D_ω = {PATIENT, VISIT, DIAGNOSIS, PRESCRIPTION, LAB_RESULT};
    PHYSICIAN and MEDICATION are referenced relations outside it.
    """
    return define_view_object(
        graph,
        "patient_chart",
        pivot="PATIENT",
        selections={
            "PATIENT": ("patient_id", "name", "birth_year", "ward_name"),
            "VISIT": (
                "patient_id", "visit_no", "visit_date", "physician_id",
                "reason",
            ),
            "DIAGNOSIS": (
                "patient_id", "visit_no", "diag_no", "code", "severity",
            ),
            "PRESCRIPTION": (
                "patient_id", "visit_no", "rx_no", "med_id", "days",
            ),
            "LAB_RESULT": (
                "patient_id", "visit_no", "test_no", "test_name", "value",
            ),
            "PHYSICIAN": ("physician_id", "name", "specialty"),
            "MEDICATION": ("med_id", "name", "dose_mg"),
        },
    )


def new_chart(
    pid: int,
    name: str,
    birth_year: int,
    reason: str,
    ward_name: Optional[str] = None,
    physician_id: int = 9000,
    leaves: Optional[Tuple[str, str, int, float]] = None,
) -> Dict[str, Any]:
    """A valid one-visit ``patient_chart`` payload for an insert.

    The visit is bare (two base tuples) unless ``leaves`` —
    ``(code, severity, days, value)`` — hangs one diagnosis, one
    ``MED-01`` prescription and one ``CBC`` lab result off it (five
    base tuples across five relations). The simulation checker, the load
    generator and the CLI all write charts of this one shape.
    """
    visit = {"patient_id": pid, "visit_no": 1}
    diagnoses, prescriptions, labs = [], [], []
    if leaves is not None:
        code, severity, days, value = leaves
        diagnoses.append(
            {**visit, "diag_no": 1, "code": code, "severity": severity}
        )
        prescriptions.append(
            {**visit, "rx_no": 1, "med_id": "MED-01", "days": days,
             "MEDICATION": []}
        )
        labs.append(
            {**visit, "test_no": 1, "test_name": "CBC", "value": value}
        )
    return {
        "patient_id": pid,
        "name": name,
        "birth_year": birth_year,
        "ward_name": ward_name,
        "VISIT": [
            {
                "patient_id": pid,
                "visit_no": 1,
                "visit_date": "1991-05-29",
                "physician_id": physician_id,
                "reason": reason,
                "DIAGNOSIS": diagnoses,
                "PRESCRIPTION": prescriptions,
                "LAB_RESULT": labs,
                "PHYSICIAN": [],
            }
        ],
    }


def rehome(chart: Dict[str, Any], new_pid: int) -> Dict[str, Any]:
    """``chart`` under another pivot key: ``patient_id`` rewritten on the
    patient and on every tuple below it — the payload of a re-keying
    ``replace`` (sharded: a cross-shard one when the owners differ)."""
    out: Dict[str, Any] = {}
    for key, value in chart.items():
        if key == "patient_id":
            out[key] = new_pid
        elif isinstance(value, list):
            out[key] = [rehome(child, new_pid) for child in value]
        else:
            out[key] = value
    return out


def hospital_session(patients: int, shards: int = 0, replication=None):
    """A loaded hospital with ``patient_chart`` registered, as a session.

    One :class:`~repro.penguin.Penguin` over a memory engine, or — given
    ``shards`` — a :class:`~repro.shard.ShardedPenguin` partitioned by
    ``PATIENT`` (with a :class:`~repro.replicate.ReplicationConfig`,
    replicated). The scaffold the simulation checker and the CLI's cluster
    commands stand on.
    """
    from repro.penguin import Penguin
    from repro.shard import ShardedPenguin, sharded_loader

    graph = hospital_schema()
    if shards:
        session = ShardedPenguin(
            graph, "PATIENT", num_shards=shards, replication=replication
        )
        loader = sharded_loader(session)
    else:
        session = Penguin(graph)
        loader = session.engine
    populate_hospital(loader, HospitalConfig(patients=patients))
    session.register_object(patient_chart_object(graph))
    return session


def restarted(session, **parts):
    """A process restart: a new session over ``session``'s engines,
    journals and audit logs, its objects registered again. The
    constructor runs recovery, exactly like a reboot; the old session is
    abandoned wherever it stopped. For a single ``Penguin``, ``parts``
    (``engine=`` / ``journal=`` / ``audit=``) replace what it restarts
    on — how a loaded session gets a journal or a fault-injecting engine.
    """
    from repro.penguin import Penguin
    from repro.shard import ShardedPenguin

    if isinstance(session, ShardedPenguin):
        shards = session.shards
        reborn = ShardedPenguin(
            session.graph,
            session.placement.partition_by,
            router=session.router,
            engines=[shard.engine for shard in shards],
            journals=[shard.journal for shard in shards],
            audits=[shard.penguin.audit for shard in shards],
            install=False,
        )
    else:
        stack = {
            "engine": session.engine,
            "journal": session.journal,
            "audit": session.audit,
        }
        reborn = Penguin(session.graph, install=False, **{**stack, **parts})
    for name in session.object_names:
        reborn.register_object(session.object(name))
    return reborn
