"""Workloads: schemas, deterministic data generators, canonical objects.

* :mod:`repro.workloads.university` — the Figure 1 schema;
* :mod:`repro.workloads.figures` — ω (Figure 2c) and ω′ (Figure 3);
* :mod:`repro.workloads.hospital` — patient records (NLM motivation);
* :mod:`repro.workloads.cad` — assemblies (the PENGUIN CAD application);
* :mod:`repro.workloads.synthetic` — dialable ownership chains for the
  scaling benches.
"""

from repro.workloads.cad import assembly_object, cad_schema, populate_cad
from repro.workloads.figures import alternate_course_object, course_info_object
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import (
    chain_object,
    chain_schema,
    populate_chain,
    random_chain_case,
)
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)

__all__ = [
    "university_schema",
    "populate_university",
    "UniversityConfig",
    "course_info_object",
    "alternate_course_object",
    "hospital_schema",
    "populate_hospital",
    "patient_chart_object",
    "HospitalConfig",
    "cad_schema",
    "populate_cad",
    "assembly_object",
    "chain_schema",
    "populate_chain",
    "chain_object",
    "random_chain_case",
]
