"""Every translated plan is checked against the connection rules.

Two tables, on memory and sqlite:

* **mutations.** A translator whose global-integrity pass is wrong — one
  cascade, one skeleton insert or one reference nullify dropped from
  the compiled program's rule tables by a test-only patch — is refused
  through both translate halves (``apply``, and the overlay half a batch
  write lands)
  with ``GlobalValidationError``: nothing lands, no journal entry is
  pending or committed, one ``rolled_back`` audit record is written and
  ``translation_failures_total`` goes up by one.
* **agreement.** Over a consistent database, a translated plan, intact
  or with one operation removed, applied to a copy is reported by the
  plan check (``IntegrityChecker.check_plan``) exactly when the full
  scan (``IntegrityChecker.check``) finds a violation after it.
"""

import pytest

import repro.obs as obs
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.errors import GlobalValidationError, ReproError
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.journal import COMMITTED, PENDING, MemoryJournal
from repro.structural.integrity import IntegrityChecker
from repro.workloads.figures import course_info_object
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
from tests.conftest import batch_write, counter_total, make_engine, sized

BACKENDS = ["memory", "sqlite"]

# -- the mutation table ---------------------------------------------------------

PATIENT = ("patient_id", "name", "birth_year", "ward_name")
VISIT = ("patient_id", "visit_no", "visit_date", "physician_id", "reason")
OBJECTS = {
    # VISIT is outside the object: deleting a patient cascades to it.
    "patient_only": ("PATIENT", {"PATIENT": PATIENT}),
    # PHYSICIAN is outside the object: a visit's physician is a skeleton.
    "visit_log": ("PATIENT", {"PATIENT": PATIENT, "VISIT": VISIT}),
    # PATIENT.ward_name is nullable and nonkey: AUTO repair nullifies it.
    "ward": ("WARD", {"WARD": ("ward_name", "floor")}),
}


def referenced_ward(session):
    return min(v[3] for v in session.engine.scan("PATIENT") if v[3])


NEW_PATIENT = {
    "patient_id": 500, "name": "New", "birth_year": 1990, "ward_name": None,
    "VISIT": [{
        "patient_id": 500, "visit_no": 1, "visit_date": "1990-01-01",
        "physician_id": 77777, "reason": "checkup",
    }],
}

# mutation -> (compiled rule table, connection whose rule is dropped,
# object, request)
MUTATIONS = {
    "drop-cascade": (
        "cascade", "patient_visits", "patient_only",
        lambda s: CompleteDeletion((100,)),
    ),
    "drop-skeleton-insert": (
        "dependencies", "visit_physician", "visit_log",
        lambda s: CompleteInsertion(s.coerce("visit_log", NEW_PATIENT)),
    ),
    "drop-nullify": (
        "incoming_refs", "patient_ward", "ward",
        lambda s: CompleteDeletion((referenced_ward(s),)),
    ),
}

DOORS = {
    "apply": lambda t, engine, request: t.apply(engine, request),
    "apply_plan_batch": lambda t, engine, request: batch_write(
        t, engine, [request]
    ),
}


def hospital_session(backend):
    session = Penguin(
        hospital_schema(), backend=backend,
        journal=MemoryJournal(), audit=MemoryAuditLog(),
    )
    populate_hospital(session.engine, HospitalConfig(patients=4))
    for name, (pivot, selections) in OBJECTS.items():
        session.define_object(name, pivot, selections)
    return session


def drop_rule(monkeypatch, table, connection):
    """Patch ``CompiledProgram`` so every program built from here on
    lacks the ``table`` entry of ``connection``."""
    original = CompiledProgram.__init__
    suffix = f" via {connection}"

    def init(self, view_object, analysis):
        original(self, view_object, analysis)
        for rules in self.rules.values():
            setattr(rules, table, tuple(
                entry for entry in getattr(rules, table)
                if not any(
                    isinstance(field, str) and field.endswith(suffix)
                    for field in entry
                )
            ))

    monkeypatch.setattr(CompiledProgram, "__init__", init)


def snapshot(engine):
    return {
        name: sorted(engine.scan(name), key=repr)
        for name in engine.relation_names()
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_wrong_global_integrity_pass_is_refused(
    mutation, door, backend, monkeypatch
):
    table, connection, name, request = MUTATIONS[mutation]
    session = hospital_session(backend)
    # The intact program emits what the mutation drops.
    intact = session.translator(name).explain_batch(
        session.engine, [request(session)]
    )
    assert any(r.endswith(f" via {connection}") for r in intact.plan.reasons)

    drop_rule(monkeypatch, table, connection)
    translator = Translator(
        session.object(name), journal=session.journal, audit=session.audit
    )
    before = snapshot(session.engine)
    with obs.use() as hub:
        with pytest.raises(
            GlobalValidationError, match=f"connection '{connection}'"
        ):
            DOORS[door](translator, session.engine, request(session))
        assert counter_total(hub.metrics, "translation_failures_total") == 1
    assert snapshot(session.engine) == before
    counts = session.journal.counts()
    assert counts[PENDING] == counts[COMMITTED] == 0
    assert [record.state for record in session.audit.records()] == [
        "rolled_back"
    ]


# -- the agreement property -----------------------------------------------------


def rekeyed(values, attribute, old, new):
    """An instance dict with every ``attribute`` equal to ``old`` set to
    ``new``, all the way down."""
    copy = {}
    for name, value in values.items():
        if isinstance(value, list):
            value = [rekeyed(child, attribute, old, new) for child in value]
        elif name == attribute and value == old:
            value = new
        copy[name] = value
    return copy


def pruned(values):
    """An instance dict without the last tuple of each top-level list."""
    return {
        name: value[:-1] if isinstance(value, list) else value
        for name, value in values.items()
    }


def requests(translator, engine, pivot, attribute, fresh, count):
    """Deletions, key changes, prunings and insertions of the first
    ``count`` pivot keys."""
    keys = sorted(values[0] for values in engine.scan(pivot))[:count]
    for index, key in enumerate(keys):
        old = translator.instantiate(engine, (key,))
        values = old.to_dict()
        yield CompleteDeletion((key,))
        yield Replacement(old, rekeyed(values, attribute, key, fresh[index]))
        yield Replacement(old, pruned(values))
        yield CompleteInsertion(
            rekeyed(values, attribute, key, fresh[count + index])
        )


def hospital(engine):
    graph = hospital_schema()
    graph.install(engine)
    populate_hospital(engine, HospitalConfig(patients=5))
    return graph, patient_chart_object(graph), ("PATIENT", "patient_id")


def university(engine):
    graph = university_schema()
    graph.install(engine)
    populate_university(
        engine, sized(UniversityConfig(students=12, courses=6), curriculum_entries=8)
    )
    return graph, course_info_object(graph), ("COURSES", "course_id")


def chain(seed):
    def build(engine):
        graph, view_object, _ = random_chain_case(engine, seed)
        return graph, view_object, ("R0", "k0")

    return build


WORKLOADS = [hospital, university] + [chain(seed) for seed in range(8)]
FRESH = {
    "patient_id": [900 + i for i in range(8)],
    "course_id": [f"NEW{i}" for i in range(8)],
    "k0": [700 + i for i in range(8)],
}


def variants(operations):
    """The plan, then the plan without one of its operations."""
    yield operations
    for index in range(len(operations)):
        yield operations[:index] + operations[index + 1:]


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_plan_check_agrees_with_the_full_scan(backend):
    cases = disagreements = 0
    for build in WORKLOADS:
        engine, copy = make_engine(backend), make_engine(backend)
        graph, view_object, (pivot, attribute) = build(engine)
        build(copy)
        checker = IntegrityChecker(graph)
        assert checker.check(engine) == []
        translator = Translator(view_object, strictness="off")
        for request in requests(
            translator, engine, pivot, attribute, FRESH[attribute], 2
        ):
            try:
                explanation = translator.explain_batch(engine, [request])
            except ReproError:
                continue
            for operations in variants(list(explanation.plan.operations)):
                copy.begin()
                try:
                    for operation in operations:
                        operation.apply(copy)
                except ReproError:
                    copy.rollback()
                    continue
                flagged = bool(checker.check_plan(copy, operations))
                found = bool(checker.check(copy))
                copy.rollback()
                cases += 1
                disagreements += flagged != found
        assert checker.check(copy) == []
    assert disagreements == 0
    assert cases >= 200
