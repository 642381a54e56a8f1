"""Property tests: structural round-trips across the whole stack."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import build_instance
from repro.core.instantiation import Instantiator
from repro.core.serialization import (
    view_object_from_dict,
    view_object_to_dict,
)
from repro.core.updates.operations import Replacement
from repro.core.updates.translator import Translator
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.figures import course_info_object
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.conftest import sized

GRAPH = university_schema()
OMEGA = course_info_object(GRAPH)


def fresh_engine(seed=1991):
    engine = MemoryEngine()
    GRAPH.install(engine)
    populate_university(
        engine,
        sized(UniversityConfig(students=8, courses=6), faculty=3, staff=1, seed=seed),
    )
    return engine


@given(seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=20, deadline=None)
def test_instantiate_to_dict_build_round_trip(seed):
    """instantiate -> to_dict -> build_instance reproduces the instance
    for every course of every generated database."""
    engine = fresh_engine(seed)
    instantiator = Instantiator(OMEGA)
    for instance in instantiator.all(engine):
        rebuilt = build_instance(OMEGA, instance.to_dict())
        assert rebuilt == instance


@given(seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=15, deadline=None)
def test_replacement_is_invertible(seed):
    """replace(old→new) then replace(new→old) restores the database."""
    engine = fresh_engine(seed)
    translator = Translator(OMEGA)
    before = {
        name: sorted(engine.scan(name)) for name in GRAPH.relation_names
    }
    cid = next(iter(engine.scan("COURSES")))[0]
    old = translator.instantiate(engine, (cid,))
    new = copy.deepcopy(old.to_dict())
    new["title"] = "Temporarily Different"
    new["units"] = (new["units"] % 5) + 1
    translator.apply(engine, Replacement(old, new), "replace")
    current = translator.instantiate(engine, (cid,))
    translator.apply(engine, Replacement(current, old.to_dict()), "replace")
    after = {
        name: sorted(engine.scan(name)) for name in GRAPH.relation_names
    }
    assert after == before


@given(seed=st.integers(min_value=1, max_value=50))
@settings(max_examples=15, deadline=None)
def test_key_change_round_trip(seed):
    """Rekeying a course and rekeying it back restores the island and
    peninsula relations exactly."""
    engine = fresh_engine(seed)
    translator = Translator(OMEGA)
    watched = ("COURSES", "GRADES", "CURRICULUM")
    before = {name: sorted(engine.scan(name)) for name in watched}
    cid = next(iter(engine.scan("COURSES")))[0]

    def rekey(data, new_id):
        data = copy.deepcopy(data)
        data["course_id"] = new_id
        for grade in data.get("GRADES", []):
            grade["course_id"] = new_id
        for entry in data.get("CURRICULUM", []):
            entry["course_id"] = new_id
        return data

    old = translator.instantiate(engine, (cid,))
    translator.apply(engine, Replacement(old, rekey(old.to_dict(), "TMPKEY")), "replace")
    temp = translator.instantiate(engine, ("TMPKEY",))
    translator.apply(engine, Replacement(temp, rekey(temp.to_dict(), cid)), "replace")
    after = {name: sorted(engine.scan(name)) for name in watched}
    assert after == before


@given(seed=st.integers(min_value=1, max_value=30))
@settings(max_examples=10, deadline=None)
def test_serialized_object_behaves_identically(seed):
    """A deserialized definition produces byte-identical instances."""
    engine = fresh_engine(seed)
    rebuilt = view_object_from_dict(GRAPH, view_object_to_dict(OMEGA))
    original_instances = Instantiator(OMEGA).all(engine)
    rebuilt_instances = Instantiator(rebuilt).all(engine)
    assert [i.to_dict() for i in original_instances] == [
        i.to_dict() for i in rebuilt_instances
    ]
