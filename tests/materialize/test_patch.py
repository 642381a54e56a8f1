"""What one changelog record does to a cached instance.

A ``replace`` that kept the key and every connecting attribute is
patched into the cached instances that show the tuple; a relation no
node shows is left alone; everything else evicts. One case per kind of
patch site on the hospital objects, then the soundness points of the
rule, each under its own name.
"""

import random

from repro.core.view_object import define_view_object
from repro.materialize import LAZY, CacheStats
from repro.materialize.dependency import DependencyIndex
from repro.materialize.store import MaterializedView
from repro.relational.changelog import ChangeRecord
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.hospital import patient_chart_object
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)
from tests.materialize.test_dependency import _NoReads, _hospital


def warm(view_object, engine):
    view = MaterializedView(view_object, engine)
    view.all()
    return view


def replace(engine, relation, key, **changes):
    schema = engine.schema(relation)
    row = dict(zip(schema.attribute_names, engine.get(relation, key)))
    row.update(changes)
    engine.replace(relation, key, row)


def counters(view):
    stats = view.stats
    return stats.patched, stats.invalidations


def assert_equals_recompute(view):
    """Exact equality — values, nesting and sibling order — with what
    assembling from the engine gives now, for the whole extent."""
    fresh = view.view_object.instantiator.all(view.engine)
    assert view.all() == fresh


class _Recording:
    """Delegates to an engine and keeps the names of the calls made."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._engine, name)


# -- one case per kind of site --------------------------------------------------


def test_pivot_attribute_is_patched_in_place():
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    patient = next(iter(engine.scan("PATIENT")))
    key = (patient[0],)
    before = view.get(key)
    replace(engine, "PATIENT", key, name="Renamed")
    view.engine = _NoReads()  # a patch inside the island reads nothing
    assert view.sync() == 1
    view.engine = engine
    assert counters(view) == (1, 0)
    after = view.get(key)
    assert after.root.values["name"] == "Renamed"
    assert after.root.children is before.root.children
    assert_equals_recompute(view)


def test_island_leaf_attribute_is_patched_with_no_engine_read():
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    diagnosis = next(iter(engine.scan("DIAGNOSIS")))
    replace(engine, "DIAGNOSIS", diagnosis[:3], severity="critical")
    view.engine = _NoReads()
    assert view.sync() == 1
    view.engine = engine
    assert counters(view) == (1, 0)
    misses = view.stats.misses
    shown = [
        d.values
        for d in view.get((diagnosis[0],)).tuples_at("DIAGNOSIS")
        if (d["visit_no"], d["diag_no"]) == diagnosis[1:3]
    ]
    assert [d["severity"] for d in shown] == ["critical"]
    assert view.stats.misses == misses
    assert_equals_recompute(view)


def test_referenced_tuple_patches_every_chart_showing_it():
    """PHYSICIAN sits outside the island: a rename fans out over the
    inverse reference (``find_by`` on VISIT, nothing else) and patches
    each cached chart with a visit it attended."""
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    physician_id = next(iter(engine.scan("VISIT")))[3]
    attended = {v[0] for v in engine.scan("VISIT") if v[3] == physician_id}
    assert len(attended) > 1
    untouched = {
        key: view.get(key) for key in tuple(view._instances) if key[0] not in attended
    }
    replace(engine, "PHYSICIAN", (physician_id,), name="Dr. Renamed")
    view.engine = recording = _Recording(engine)
    view.sync()
    view.engine = engine
    assert set(recording.calls) == {"find_by"}
    assert counters(view) == (len(attended), 0)
    for patient_id in attended:
        names = {
            p["name"]
            for p in view.get((patient_id,)).tuples_at("PHYSICIAN")
            if p["physician_id"] == physician_id
        }
        assert names == {"Dr. Renamed"}
    for key, instance in untouched.items():
        assert view.get(key) is instance
    assert_equals_recompute(view)


def test_relation_at_two_nodes_is_patched_at_both():
    """PEOPLE hangs under DEPARTMENT (the department's people) and, as
    PEOPLE#2, under STUDENT (the graded student's person record)."""
    graph = university_schema()
    engine = MemoryEngine()
    graph.install(engine)
    populate_university(engine, UniversityConfig())
    roster = define_view_object(
        graph,
        "roster",
        pivot="COURSES",
        selections={
            "COURSES": ("course_id", "title", "dept_name"),
            "DEPARTMENT": ("dept_name", "building"),
            "PEOPLE": ("person_id", "name", "dept_name"),
            "GRADES": ("course_id", "student_id", "grade"),
            "STUDENT": ("person_id", "year"),
            "PEOPLE#2": ("person_id", "name", "dept_name"),
        },
    )
    view = warm(roster, engine)

    def shows(instance, node_id, person_id):
        return [
            p for p in instance.tuples_at(node_id) if p["person_id"] == person_id
        ]

    person_id, key = next(
        (p["person_id"], instance.key)
        for instance in view.all()
        for p in instance.tuples_at("PEOPLE#2")
        if shows(instance, "PEOPLE", p["person_id"])
    )
    replace(engine, "PEOPLE", (person_id,), name="Renamed")
    view.sync()
    patched, evicted = counters(view)
    assert patched >= 1 and evicted == 0
    instance = view.get(key)
    for node_id in ("PEOPLE", "PEOPLE#2"):
        assert [p["name"] for p in shows(instance, node_id, person_id)] == [
            "Renamed"
        ]
    assert_equals_recompute(view)


def pruned_chart(graph):
    """Diagnoses straight under the patient: VISIT only occurs inside
    the composite path PATIENT --* VISIT --* DIAGNOSIS."""
    return define_view_object(
        graph,
        "diagnoses",
        pivot="PATIENT",
        selections={
            "PATIENT": ("patient_id", "name"),
            "DIAGNOSIS": ("patient_id", "visit_no", "diag_no", "code"),
        },
    )


def test_pruned_intermediate_relation_neither_patches_nor_evicts():
    graph, engine, _ = _hospital()
    view = warm(pruned_chart(graph), engine)
    assert view.dependencies.tracks("VISIT")
    cached = {key: view.get(key) for key in tuple(view._instances)}
    visit = next(iter(engine.scan("VISIT")))
    replace(engine, "VISIT", visit[:2], reason="nobody shows this")
    replace(engine, "VISIT", visit[:2], physician_id=visit[3] + 1)
    view.engine = _NoReads()
    assert view.sync() == 2
    view.engine = engine
    assert counters(view) == (0, 0)
    assert {key: view.get(key) for key in tuple(view._instances)} == cached
    assert all(view.get(key) is instance for key, instance in cached.items())
    # Deleting the visit cuts its diagnoses off the patient: that evicts.
    engine.delete("VISIT", visit[:2])
    view.sync()
    assert counters(view) == (0, 1)
    assert_equals_recompute(view)


def keyless_chart(graph):
    """Not updatable, so a node may drop part of its key: diagnoses
    per visit without their number."""
    return define_view_object(
        graph,
        "codes",
        pivot="PATIENT",
        selections={
            "PATIENT": ("patient_id", "name"),
            "VISIT": ("patient_id", "visit_no", "reason"),
            "DIAGNOSIS": ("patient_id", "visit_no", "code", "severity"),
        },
        updatable=False,
    )


def test_node_projection_without_the_key_always_evicts():
    """Soundness (2): a tuple is found in a cached instance by its key;
    where a node does not show the key the relation is never patched."""
    graph, engine, _ = _hospital()
    view = warm(keyless_chart(graph), engine)
    diagnosis = next(iter(engine.scan("DIAGNOSIS")))
    replace(engine, "DIAGNOSIS", diagnosis[:3], severity="critical")
    view.sync()
    assert counters(view) == (0, 1)
    # The other relations of the same object still patch.
    view.get(diagnosis[:1])
    replace(engine, "VISIT", diagnosis[:2], reason="patched")
    view.sync()
    assert counters(view) == (1, 1)
    assert_equals_recompute(view)


def test_rekey_and_relink_evict():
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    diagnosis = next(iter(engine.scan("DIAGNOSIS")))
    replace(engine, "DIAGNOSIS", diagnosis[:3], diag_no=99)  # re-key
    view.sync()
    assert counters(view) == (0, 1)
    visit = engine.get("VISIT", diagnosis[:2])
    other = next(
        p[0] for p in sorted(engine.scan("PHYSICIAN")) if p[0] != visit[3]
    )
    view.get(diagnosis[:1])
    replace(engine, "VISIT", visit[:2], physician_id=other)  # re-link
    view.sync()
    assert counters(view) == (0, 2)
    assert (diagnosis[0],) not in view._instances
    assert_equals_recompute(view)


# -- soundness of the rule ------------------------------------------------------


def test_only_replaces_that_keep_key_and_frozen_positions_are_patched():
    """Soundness (1), over every position of every relation of the
    chart: a replace changing that one position is patched iff the
    position is neither in the key nor a connecting attribute."""
    graph, engine, chart = _hospital()
    index = DependencyIndex(chart)
    frozen = {
        "PATIENT": {"patient_id"},  # the chart does not show the ward
        "VISIT": {"patient_id", "visit_no", "physician_id"},
        "DIAGNOSIS": {"patient_id", "visit_no", "diag_no"},
        "PRESCRIPTION": {"patient_id", "visit_no", "rx_no", "med_id"},
        "LAB_RESULT": {"patient_id", "visit_no", "test_no"},
        "PHYSICIAN": {"physician_id"},
        "MEDICATION": {"med_id"},
    }
    assert set(index.relations) == set(frozen)
    for relation, names in frozen.items():
        schema = graph.relation(relation)
        old = next(iter(engine.scan(relation)))
        key = schema.key_of(old)
        for position, name in enumerate(schema.attribute_names):
            new = old[:position] + (None,) + old[position + 1:]
            record = ChangeRecord("replace", relation, key, new, old)
            assert (index.patch_sites(record) is None) == (name in names), (
                relation, name
            )
        same = ChangeRecord("replace", relation, key, old, old)
        assert index.patch_sites(same) is not None
        assert index.patch_sites(ChangeRecord("insert", relation, key, old)) is None
        assert index.patch_sites(
            ChangeRecord("delete", relation, key, None, old)
        ) is None


def test_patched_component_is_what_bind_would_build_and_keeps_its_children():
    """Soundness (3): the projected names over the record's new values,
    nothing else, with the children the tuple already had."""
    graph, engine, chart = _hospital()
    view = warm(chart, engine)
    visit = next(iter(engine.scan("VISIT")))
    key = (visit[0],)
    before = next(
        v for v in view.get(key).tuples_at("VISIT") if v["visit_no"] == visit[1]
    )
    replace(engine, "VISIT", visit[:2], reason=None, visit_date="1991-01-01")
    view.sync()
    after = next(
        v for v in view.get(key).tuples_at("VISIT") if v["visit_no"] == visit[1]
    )
    attributes = chart.projection("VISIT").attributes
    schema = graph.relation("VISIT")
    assert after.values == dict(
        zip(attributes, schema.project(engine.get("VISIT", visit[:2]), attributes))
    )
    assert list(after.values) == list(attributes)
    assert after.children is before.children
    assert_equals_recompute(view)


def test_records_apply_in_log_order_and_an_eviction_ends_the_round():
    """Soundness (4): a patch before or after an eviction of the same
    pivot in one round leaves it uncached, never a patched copy of an
    outdated instance."""
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    first, second = sorted(engine.scan("DIAGNOSIS"))[:2]
    assert first[:1] == second[:1]
    key = (first[0],)
    # patch, then evict
    replace(engine, "DIAGNOSIS", first[:3], severity="patched first")
    engine.delete("DIAGNOSIS", second[:3])
    assert view.sync() == 2
    assert counters(view) == (1, 1)
    assert key not in view._instances
    assert_equals_recompute(view)
    # evict, then patch: the patch finds nothing cached
    view.get(key)
    engine.insert("DIAGNOSIS", second)
    replace(engine, "DIAGNOSIS", first[:3], severity="patched second")
    replace(engine, "PATIENT", key, name="and the pivot")
    assert view.sync() == 3
    assert counters(view) == (1, 2)
    assert key not in view._instances
    assert_equals_recompute(view)


def test_instances_handed_out_earlier_are_never_mutated():
    """Soundness (5), copy-on-write: the old instance keeps its values,
    the patched one is a new object, and every subtree off the way to
    the patched tuple is shared."""
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    patient_id = next(
        v[0] for v in engine.scan("VISIT")
        if v[1] == 2 and engine.find_by(
            "DIAGNOSIS", ("patient_id", "visit_no"), (v[0], 1)
        )
    )
    key = (patient_id,)
    before = view.get(key)
    snapshot = before.to_dict()
    replace(engine, "DIAGNOSIS", (patient_id, 1, 1), severity="critical")
    view.sync()
    after = view.get(key)
    assert after is not before
    assert before.to_dict() == snapshot
    assert after.to_dict() != snapshot
    old_visits = before.root.child_tuples("VISIT")
    new_visits = after.root.child_tuples("VISIT")
    assert [v["visit_no"] for v in new_visits] == [
        v["visit_no"] for v in old_visits
    ]
    for old, new in zip(old_visits, new_visits):
        if old["visit_no"] != 1:
            assert new is old  # sibling visits: the same objects
            continue
        assert new is not old and new.values is old.values
        for child_id, components in old.children.items():
            if child_id != "DIAGNOSIS":
                assert new.children[child_id] is components
        for old_d, new_d in zip(
            old.child_tuples("DIAGNOSIS"), new.child_tuples("DIAGNOSIS")
        ):
            assert (new_d is old_d) == (old_d["diag_no"] != 1)


def test_rollback_keeps_every_cached_instance():
    """Inside a transaction a read shows the uncommitted write from the
    engine and patches nothing; the rollback hands the cache nothing, so
    no instance is dropped and the next read is a hit."""
    _, engine, chart = _hospital()
    view = warm(chart, engine)
    cached = len(view)
    patient = next(iter(engine.scan("PATIENT")))
    engine.begin()
    replace(engine, "PATIENT", patient[:1], name="Aborted")
    assert view.get(patient[:1]).root.values["name"] == "Aborted"
    engine.rollback()
    assert len(view) == cached and counters(view) == (0, 0)
    hits = view.stats.hits
    assert view.get(patient[:1]).root.values["name"] == patient[1]
    assert view.stats.hits == hits + 1
    assert_equals_recompute(view)


def test_sync_span_and_registry_report_patches_and_evictions():
    import repro.obs as obs

    _, engine, chart = _hospital()
    view = warm(chart, engine)
    first, second = list(engine.scan("PATIENT"))[:2]
    with obs.use() as hub:
        replace(engine, "PATIENT", first[:1], name="Patched")
        engine.delete("VISIT", (second[0], 1))
        view.sync()
        (span,) = hub.tracer.roots()
        assert (span.name, span.attributes) == (
            "view.sync",
            {"object": "patient_chart", "records": 2, "patched": 1, "evicted": 1},
        )
        assert hub.metrics.counter_total("cache_patches_total") == 1
    stats = view.stats.as_dict()
    assert (stats["patched"], stats["invalidations"]) == (1, 1)
    assert CacheStats().merge(view.stats).patched == 1


def test_patch_on_sqlite_equals_recompute():
    from repro.relational.sqlite_engine import SqliteEngine
    from repro.workloads.hospital import (
        HospitalConfig,
        hospital_schema,
        populate_hospital,
    )

    graph = hospital_schema()
    engine = SqliteEngine()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=6))
    view = warm(patient_chart_object(graph), engine)
    for relation, changes in (
        ("PATIENT", {"birth_year": 1900}),
        ("LAB_RESULT", {"value": 1.5}),
        ("MEDICATION", {"dose_mg": 1}),
    ):
        values = next(iter(engine.scan(relation)))
        replace(engine, relation, graph.relation(relation).key_of(values), **changes)
    assert view.sync() == 3
    patched, evicted = counters(view)
    assert patched >= 3 and evicted == 0
    assert_equals_recompute(view)


def test_update_heavy_replaces_are_patched():
    """35% in-place replaces — pivot, visit, island leaf, the physician
    every chart showing them shares — between zipf reads through a
    ``Penguin``: all of them patched, so after the warm-up nothing is
    evicted, nothing re-assembled and every read is a hit."""
    from repro.penguin import Penguin
    from repro.workloads.hospital import hospital_schema, populate_hospital
    from repro.workloads.synthetic import ZipfianWorkload

    session = Penguin(hospital_schema())
    populate_hospital(session.engine)
    session.register_object(patient_chart_object(session.graph))
    engine, name = session.engine, "patient_chart"
    view = session.materialize(name, policy=LAZY)
    session.query(name)  # warm
    patients = sorted(v[0] for v in engine.scan("PATIENT"))
    workload = ZipfianWorkload(len(patients), skew=0.9, seed=7)
    kinds = random.Random(7)
    assembled, hits = view.stats.misses, view.stats.hits
    reads = writes = 0
    for sequence in range(2000):
        pid = patients[workload.sample_rank()]
        if kinds.random() < 0.65:
            assert session.get(name, (pid,)).key == (pid,)
            reads += 1
            continue
        relation, key, attribute = (
            ("PATIENT", (pid,), "name"),
            ("VISIT", (pid, 1), "reason"),
            ("DIAGNOSIS", (pid, 1, 1), "severity"),
            ("PHYSICIAN", (engine.get("VISIT", (pid, 1))[3],), "name"),
        )[sequence % 4]
        replace(engine, relation, key, **{attribute: f"changed {sequence}"})
        writes += 1
    stats = view.stats
    assert writes and stats.patched >= writes
    assert stats.invalidations == 0
    assert stats.misses == assembled, "an in-place replace caused a re-assembly"
    assert stats.hits - hits == reads
    assert_equals_recompute(view)
