"""Siblings come in primary-key order on every engine.

Section 6 fixes everything about a view object except its data when the
object is defined, and ``Engine.find_by`` fixes the rest: a tuple's
position among its siblings is its key's rank, so an instance is the
same value — ``to_dict()`` equal, order included — whichever engine it
was read from and whatever order its rows were stored in. Over seeded
data for every object of the hospital, university and cad workloads
(Figure 3's ω′, whose composite path sorts at its end, included) and of
random members of the chain family, with each relation's rows loaded in
a drawn order into an indexed memory engine, an unindexed one and
sqlite, every pivot key instantiates to the same dictionary.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instantiation import Instantiator
from repro.relational.memory_engine import MemoryEngine
from repro.workloads import cad as cad_module
from repro.workloads.cad import assembly_object, cad_schema, populate_cad
from repro.workloads.figures import alternate_course_object, course_info_object
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.synthetic import random_chain_case
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.conftest import make_engine, sized
from tests.property.test_read_path_properties import view_objects


def hospital(source, seed):
    graph = hospital_schema()
    graph.install(source)
    populate_hospital(source, sized(HospitalConfig(patients=8), seed=seed))
    return graph, [patient_chart_object(graph)]


def university(source, seed):
    graph = university_schema()
    graph.install(source)
    populate_university(
        source, sized(UniversityConfig(students=16, courses=8), seed=seed)
    )
    return graph, [course_info_object(graph), alternate_course_object(graph)]


def cad(source, seed):
    graph = cad_schema()
    graph.install(source)
    with mock.patch.multiple(cad_module, ASSEMBLIES=4, PARTS=12, SEED=seed):
        populate_cad(source)
    return graph, [assembly_object(graph)]


def chain(source, seed):
    graph, spanning, _ = random_chain_case(source, seed, adversarial=seed % 2 == 1)
    return graph, view_objects(spanning)


WORKLOADS = {"hospital": hospital, "university": university, "cad": cad, "chain": chain}


def loaded(graph, source, engine, rng):
    """``engine`` holding ``source``'s rows, each relation's in a drawn
    order."""
    graph.install(engine)
    for name in graph.relation_names:
        rows = sorted(source.scan(name))
        rng.shuffle(rows)
        engine.insert_many(name, rows)
    return engine


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), rng=st.randoms())
def test_instances_are_equal_on_every_engine_order_included(workload, seed, rng):
    source = MemoryEngine()
    graph, objects = WORKLOADS[workload](source, seed)
    engines = [
        loaded(graph, source, engine, rng)
        for engine in (
            MemoryEngine(),
            MemoryEngine(use_indexes=False),
            make_engine("sqlite"),
        )
    ]
    for view_object in objects:
        instantiator = Instantiator(view_object)
        pivot = graph.relation(view_object.pivot_relation)
        for values in source.scan(view_object.pivot_relation):
            key = pivot.key_of(values)
            first, *others = (
                instantiator.by_key(engine, key).to_dict() for engine in engines
            )
            assert all(other == first for other in others), (view_object.name, key)
