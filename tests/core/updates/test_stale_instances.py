"""Stale-instance handling: the database moved under the application.

Instances are snapshots; by the time an update request arrives the base
data may have changed. These tests pin down the defined behaviours:
stale island tuples in deletions are skipped (the cascade would have
removed them), missing pivots are hard errors, and VO-R copes with
referenced tuples that vanished.
"""

import copy

import pytest

from repro.core.updates.operations import CompleteDeletion, Replacement
from repro.core.updates.translator import Translator
from repro.errors import UpdateRejectedError
from repro.structural.integrity import IntegrityChecker


@pytest.fixture
def translator(omega):
    return Translator(omega)


def course_with_grades(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError


def test_deletion_with_already_deleted_grade(translator, university_engine):
    cid = course_with_grades(university_engine)
    instance = translator.instantiate(university_engine, (cid,))
    # Someone else removes one grade between instantiation and deletion.
    grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
    university_engine.delete("GRADES", (grade[0], grade[1]))
    translator.apply(university_engine, CompleteDeletion(instance))
    assert university_engine.get("COURSES", (cid,)) is None


def test_deletion_of_vanished_pivot_rejected(translator, university_engine):
    cid = course_with_grades(university_engine)
    instance = translator.instantiate(university_engine, (cid,))
    university_engine.delete("COURSES", (cid,))
    # Clean up dependents so the setup leaves no dangling reference.
    for grade in university_engine.find_by("GRADES", ("course_id",), (cid,)):
        university_engine.delete("GRADES", (grade[0], grade[1]))
    for entry in university_engine.find_by(
        "CURRICULUM", ("course_id",), (cid,)
    ):
        university_engine.delete("CURRICULUM", (entry[0], entry[1]))
    with pytest.raises(UpdateRejectedError, match="does not exist"):
        translator.apply(university_engine, CompleteDeletion(instance))


def test_replacement_of_vanished_island_tuple_rejected(
    translator, university_engine, university_graph
):
    cid = course_with_grades(university_engine)
    old = translator.instantiate(university_engine, (cid,))
    grade = university_engine.find_by("GRADES", ("course_id",), (cid,))[0]
    university_engine.delete("GRADES", (grade[0], grade[1]))
    new = copy.deepcopy(old.to_dict())
    for entry in new["GRADES"]:
        entry["grade"] = "A+"
    with pytest.raises(UpdateRejectedError, match="no longer exists"):
        translator.apply(university_engine, Replacement(old, new))
    # All-or-nothing: the grades that were still present are untouched.
    remaining = university_engine.find_by("GRADES", ("course_id",), (cid,))
    assert all(values[2] != "A+" for values in remaining)


def _orphan_department(engine, cid, dept):
    """Remove ``dept`` from the database, leaving only ``cid`` pointing
    at it — a pre-existing inconsistency the translator did not cause."""
    for values in list(engine.scan("COURSES")):
        if values[4] == dept and values[0] != cid:
            engine.replace(
                "COURSES", (values[0],), values[:4] + ("Physics",) + values[5:]
            )
    for values in list(engine.scan("PEOPLE")):
        if values[2] == dept:
            engine.replace(
                "PEOPLE", (values[0],), values[:2] + (None,) + values[3:]
            )
    engine.delete("DEPARTMENT", (dept,))


def test_preexisting_corruption_surfaces_in_verify_mode(
    omega, university_engine
):
    """A dangling reference the translator did not create is *detected*
    (verify mode), not silently repaired: an unchanged-FK replacement
    performs no dependency checks (per VO-CI's "if some referencing
    attributes are involved in the replacement")."""
    from repro.errors import GlobalValidationError

    translator = Translator(omega)
    cid = next(
        v[0]
        for v in university_engine.scan("COURSES")
        if v[4] != "Physics"
    )
    old = translator.instantiate(university_engine, (cid,))
    _orphan_department(university_engine, cid, old.root.values["dept_name"])
    new = copy.deepcopy(old.to_dict())
    new["title"] = "Survivor"
    new["DEPARTMENT"] = []
    with pytest.raises(GlobalValidationError, match="missing DEPARTMENT"):
        translator.apply(university_engine, Replacement(old, new))
    # Rolled back: the title change did not land.
    assert university_engine.get("COURSES", (cid,))[1] == old.root.values["title"]


def test_changed_reference_to_vanished_tuple_reinserts(
    omega, university_engine, university_graph
):
    """When the replacement *does* change the reference, the missing
    referenced tuple is inserted (skeleton), restoring consistency."""
    translator = Translator(omega)
    cid = next(
        v[0]
        for v in university_engine.scan("COURSES")
        if v[4] != "Physics"
    )
    old = translator.instantiate(university_engine, (cid,))
    dept = old.root.values["dept_name"]
    _orphan_department(university_engine, cid, dept)
    # Re-point the course at a *new* never-seen department: the FK is
    # involved in the replacement, so dependencies are ensured.
    new = copy.deepcopy(old.to_dict())
    new["dept_name"] = "Rebuilt Department"
    new["DEPARTMENT"] = []
    translator.apply(university_engine, Replacement(old, new))
    assert university_engine.get("DEPARTMENT", ("Rebuilt Department",)) is not None
    assert IntegrityChecker(university_graph).is_consistent(university_engine)
