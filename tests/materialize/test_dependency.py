"""DependencyIndex: mapping base-tuple changes to affected pivot keys."""

import pytest

from repro.materialize.dependency import DependencyIndex
from repro.relational.changelog import ChangeRecord
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.figures import alternate_course_object, course_info_object
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)

GRAPH = university_schema()
OMEGA = course_info_object(GRAPH)
OMEGA_PRIME = alternate_course_object(GRAPH)


@pytest.fixture(scope="module")
def engine():
    engine = MemoryEngine()
    GRAPH.install(engine)
    populate_university(engine, UniversityConfig())
    return engine


@pytest.fixture(scope="module")
def index():
    return DependencyIndex(OMEGA)


def row_map(engine, relation, values):
    return dict(zip((a.name for a in engine.schema(relation).attributes), values))


def test_tracked_relations_cover_tree(index):
    for relation in ("COURSES", "DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"):
        assert index.tracks(relation)
    # STAFF is nowhere in omega's tree or its edge paths.
    assert not index.tracks("STAFF")


def test_pivot_tuple_resolves_to_itself(engine, index):
    values = next(iter(engine.scan("COURSES")))
    assert index.pivots_for(engine, "COURSES", values) == {(values[0],)}


def test_grade_resolves_to_owning_course(engine, index):
    grade = next(iter(engine.scan("GRADES")))
    course_id = row_map(engine, "GRADES", grade)["course_id"]
    assert index.pivots_for(engine, "GRADES", grade) == {(course_id,)}


def test_department_resolves_to_every_course_in_it(engine, index):
    department = next(iter(engine.scan("DEPARTMENT")))
    dept_name = department[0]
    expected = {
        (row[0],)
        for row in engine.scan("COURSES")
        if row_map(engine, "COURSES", row)["dept_name"] == dept_name
    }
    assert index.pivots_for(engine, "DEPARTMENT", department) == expected


def test_student_resolves_through_grades(engine, index):
    student = next(iter(engine.scan("STUDENT")))
    person_id = student[0]
    expected = {
        (row_map(engine, "GRADES", g)["course_id"],)
        for g in engine.scan("GRADES")
        if row_map(engine, "GRADES", g)["student_id"] == person_id
    }
    assert index.pivots_for(engine, "STUDENT", student) == expected


def test_pruned_intermediate_relation_is_tracked(engine):
    """ω′ reaches STUDENT via COURSES --* GRADES *-- STUDENT with GRADES
    pruned away (Figure 3); a GRADES change must still resolve."""
    index = DependencyIndex(OMEGA_PRIME)
    assert index.tracks("GRADES")
    grade = next(iter(engine.scan("GRADES")))
    course_id = row_map(engine, "GRADES", grade)["course_id"]
    assert (course_id,) in index.pivots_for(engine, "GRADES", grade)


def test_replace_record_resolves_both_sides(engine, index):
    """A grade migrating between courses affects both instances."""
    schema = engine.schema("GRADES")
    grades = list(engine.scan("GRADES"))
    old = grades[0]
    courses = sorted(v[0] for v in engine.scan("COURSES"))
    other_course = next(
        c for c in courses if c != row_map(engine, "GRADES", old)["course_id"]
    )
    new = (other_course,) + tuple(old[1:])
    record = ChangeRecord(
        "replace", "GRADES", schema.key_of(old), new_values=new, old_values=old
    )
    affected = index.affected_pivots(engine, record)
    assert (row_map(engine, "GRADES", old)["course_id"],) in affected
    assert (other_course,) in affected


def test_untracked_relation_resolves_to_nothing(engine, index):
    staff = next(iter(engine.scan("STAFF")))
    assert index.pivots_for(engine, "STAFF", staff) == set()


def test_null_connecting_value_resolves_to_nothing(engine):
    """A FACULTY row only affects ω′ courses that reference it; with no
    referencing course the resolution is empty, and null instructor ids
    never match."""
    index = DependencyIndex(OMEGA_PRIME)
    referenced = {
        row_map(engine, "COURSES", c)["instructor_id"]
        for c in engine.scan("COURSES")
    }
    unreferenced = [
        f for f in engine.scan("FACULTY") if f[0] not in referenced
    ]
    if unreferenced:  # population is deterministic but stay defensive
        assert index.pivots_for(engine, "FACULTY", unreferenced[0]) == set()


# -- the compiled climb against the walk it replaced --------------------------


def _everything(graph, name, pivot):
    """A view object keeping every node of the pivot's maximal tree."""
    from repro.core.information_metric import InformationMetric, MetricWeights
    from repro.core.tree_builder import build_maximal_tree
    from repro.core.view_object import define_view_object

    metric = InformationMetric(
        weights=MetricWeights(hop_decay=0.98), threshold=0.05
    )
    maximal = build_maximal_tree(
        graph, metric.extract_subgraph(graph, pivot), metric.weights
    )
    selections = {
        node.node_id: graph.relation(node.relation).attribute_names
        for node in maximal.nodes()
        if node.parent_id is None or node.relation != pivot
    }
    return define_view_object(graph, name, pivot, selections, metric=metric)


def _hospital():
    from repro.workloads.hospital import (
        HospitalConfig,
        hospital_schema,
        patient_chart_object,
        populate_hospital,
    )

    graph = hospital_schema()
    engine = MemoryEngine()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=8))
    return graph, engine, patient_chart_object(graph)


def _climb_cases():
    """(engine, view object): the paper's objects plus two whose climbs
    mix engine steps and projection — rounds: DIAGNOSIS *-- VISIT is a
    key step but VISIT --> PHYSICIAN starts from a nonkey attribute, so
    the visit has to be fetched; census: PATIENT --> WARD starts from a
    nullable one."""
    university = MemoryEngine()
    GRAPH.install(university)
    populate_university(university, UniversityConfig())
    graph, hospital, chart = _hospital()
    return [
        pytest.param(university, OMEGA, id="course_info"),
        pytest.param(university, OMEGA_PRIME, id="course_staffing"),
        pytest.param(hospital, chart, id="patient_chart"),
        pytest.param(
            hospital, _everything(graph, "rounds", "PHYSICIAN"), id="rounds"
        ),
        pytest.param(
            hospital, _everything(graph, "census", "WARD"), id="census"
        ),
    ]


@pytest.mark.parametrize(("engine", "view_object"), _climb_cases())
def test_compiled_climb_equals_the_walk_for_every_tuple(engine, view_object):
    """On consistent data every owner exists, so projection and engine
    walk must name exactly the same pivots — for each tuple of each
    relation, tracked or not."""
    from tests.reference_walk import ReferenceDependencyIndex

    index = DependencyIndex(view_object)
    reference = ReferenceDependencyIndex(view_object)
    compared = 0
    for relation in engine.relation_names():
        assert index.tracks(relation) == reference.tracks(relation)
        for values in engine.scan(relation):
            assert index.pivots_for(engine, relation, values) == (
                reference.pivots_for(engine, relation, values)
            )
            compared += 1
    assert compared


class _NoReads:
    """An engine that fails the test if the climb asks it anything."""

    def __getattr__(self, name):
        raise AssertionError(f"island climb called engine.{name}")


def test_island_climb_is_a_projection_with_no_engine_read():
    """Definitions 2.2/2.4 put the owner's key in the owned tuple: for
    every relation of the chart's dependency island the pivot key is read
    off the tuple. Only the referenced relations still walk."""
    _, engine, chart = _hospital()
    index = DependencyIndex(chart)
    for relation in ("PATIENT", "VISIT", "DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT"):
        for values in engine.scan(relation):
            assert index.pivots_for(_NoReads(), relation, values) == {
                (values[0],)
            }
    with pytest.raises(AssertionError):
        index.pivots_for(
            _NoReads(), "PHYSICIAN", next(iter(engine.scan("PHYSICIAN")))
        )


def test_null_in_the_first_connecting_values_resolves_to_nothing():
    """A null never matches (Definition 2.1), also when the step it
    starts is projected rather than asked of the engine — and also when
    only part of a composite reference is null."""
    graph, engine, _ = _hospital()
    census = DependencyIndex(_everything(graph, "census", "WARD"))
    patient = next(iter(engine.scan("PATIENT")))
    admitted = patient[:3] + ("ICU",)
    assert census.pivots_for(engine, "PATIENT", admitted) == {("ICU",)}
    assert census.pivots_for(engine, "PATIENT", patient[:3] + (None,)) == set()

    from repro.workloads.synthetic import random_chain_case

    chain = MemoryEngine()
    # Seed 0 grafts SHARER(pen_id, k0) --> PENINSULA(pen_id, k0) --> R0(k0).
    _, spanning, params = random_chain_case(chain, 0, adversarial=True)
    assert "shared_peninsula" in params["adversarial"]
    sharing = DependencyIndex(_everything(spanning.graph, "sharing", "R0"))
    assert sharing.pivots_for(_NoReads(), "SHARER", (7, 0, 0)) == {(0,)}
    assert sharing.pivots_for(_NoReads(), "SHARER", (7, None, 0)) == set()
    assert sharing.pivots_for(_NoReads(), "SHARER", (7, None, None)) == set()


def test_projection_still_names_the_pivot_after_an_owner_is_gone():
    """Where the engine walk returned nothing (the VISIT between a
    DIAGNOSIS and its PATIENT no longer exists) the projection still
    names the patient: a superset, and an unobservable one — evicting a
    key that is not cached changes neither the cache nor its counters."""
    from repro.materialize.store import MaterializedView
    from tests.reference_walk import ReferenceDependencyIndex

    _, engine, chart = _hospital()
    diagnosis = next(iter(engine.scan("DIAGNOSIS")))
    patient_id, visit_no = diagnosis[0], diagnosis[1]
    index, walk = DependencyIndex(chart), ReferenceDependencyIndex(chart)
    assert index.pivots_for(engine, "DIAGNOSIS", diagnosis) == {(patient_id,)}
    assert walk.pivots_for(engine, "DIAGNOSIS", diagnosis) == {(patient_id,)}

    view = MaterializedView(chart, engine)
    view.all()
    try:
        engine.delete("VISIT", (patient_id, visit_no))
        engine.delete("PATIENT", (patient_id,))
        view.sync()
        assert (patient_id,) not in view._instances
        assert walk.pivots_for(engine, "DIAGNOSIS", diagnosis) == set()
        assert index.pivots_for(engine, "DIAGNOSIS", diagnosis) == {
            (patient_id,)
        }
        cached, counters = len(view), view.stats.as_dict()
        engine.replace(
            "DIAGNOSIS", diagnosis[:3], diagnosis[:3] + ("orphaned", "low")
        )
        assert view.sync() == 1
        after = view.stats.as_dict()
        assert after.pop("records_applied") == counters.pop(
            "records_applied"
        ) + 1
        assert after == counters
        assert len(view) == cached
    finally:
        view.close()
