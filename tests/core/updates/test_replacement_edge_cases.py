"""Remaining VO-R branches: vanished outside rows, removed outside
components, and facade bulk wrappers."""

import copy


from repro.core.updates.operations import Replacement
from repro.core.updates.translator import Translator


def course_with_all(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError


def _vanish_student(engine, old):
    grade = old.tuples_at("GRADES")[0]
    sid = grade.child_tuples("STUDENT")[0]["person_id"]
    engine.delete("STUDENT", (sid,))
    return sid


def test_identical_pair_with_vanished_row_is_noop(omega, university_engine):
    """CASE I-1 with identical projections does nothing — even when the
    base row vanished, per R-1 ('the projections match exactly')."""
    translator = Translator(omega)
    cid = course_with_all(university_engine)
    old = translator.instantiate(university_engine, (cid,))
    sid = _vanish_student(university_engine, old)
    new = copy.deepcopy(old.to_dict())
    new["title"] = "Changed"
    plan = translator.apply(university_engine, Replacement(old, new), "replace")
    assert university_engine.get("STUDENT", (sid,)) is None
    assert all(op.relation != "STUDENT" for op in plan)


def test_changed_pair_with_vanished_row_is_reinserted(
    omega, university_engine
):
    """CASE I-1 whose database row disappeared *and* whose values
    changed falls through to the insertion path."""
    translator = Translator(omega)
    cid = course_with_all(university_engine)
    old = translator.instantiate(university_engine, (cid,))
    sid = _vanish_student(university_engine, old)
    new = copy.deepcopy(old.to_dict())
    for grade in new["GRADES"]:
        for student in grade["STUDENT"]:
            if student["person_id"] == sid:
                student["year"] = 9
    plan = translator.apply(university_engine, Replacement(old, new), "replace")
    revived = university_engine.get("STUDENT", (sid,))
    assert revived is not None and revived[2] == 9
    inserted = {op.relation for op in plan if op.kind == "insert"}
    assert "STUDENT" in inserted


def test_removed_outside_component_is_noop(omega, university_engine):
    """Dropping an outside component from the new instance leaves the
    base tuple alone — only island removals delete."""
    translator = Translator(omega)
    cid = course_with_all(university_engine)
    old = translator.instantiate(university_engine, (cid,))
    dept = old.root.values["dept_name"]
    new = copy.deepcopy(old.to_dict())
    new["DEPARTMENT"] = []
    plan = translator.apply(university_engine, Replacement(old, new), "replace")
    assert university_engine.get("DEPARTMENT", (dept,)) is not None
    assert all(op.relation != "DEPARTMENT" for op in plan)


def test_penguin_bulk_wrappers(university_graph):
    from repro.penguin import Penguin
    from repro.workloads.figures import course_info_object
    from repro.workloads.university import populate_university, university_schema

    penguin = Penguin(university_schema())
    populate_university(penguin.engine)
    penguin.register_object(course_info_object(penguin.graph))

    def rename(data):
        data = dict(data)
        data["title"] = "BULK " + data["title"]
        return data

    plan = penguin.update_where("course_info", "level = 'graduate'", rename)
    assert plan.count("replace") > 0
    for values in penguin.engine.scan("COURSES"):
        if values[3] == "graduate":
            assert values[1].startswith("BULK ")

    plan = penguin.delete_where("course_info", "level = 'graduate'")
    assert plan.count("delete") > 0
    assert all(
        values[3] != "graduate" for values in penguin.engine.scan("COURSES")
    )
    assert penguin.is_consistent()
