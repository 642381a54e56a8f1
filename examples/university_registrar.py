#!/usr/bin/env python
"""A registrar application on the university database.

Demonstrates the full update vocabulary on ω (Figure 2c):

* enrolling and withdrawing students (partial insert/delete of GRADES);
* grade corrections (partial update);
* course renumbering — the paper's EES345 scenario, including the
  automatic insertion of a brand-new DEPARTMENT tuple;
* a restrictive translator that rejects exactly that scenario.

The partial operations are Section 5's update requests, handed to the
bound translator's eager door (``translator.apply``); the complete ones
go through the session verbs.

Run:  python examples/university_registrar.py
"""

import copy

from repro import Penguin, UpdateRejectedError
from repro.core.updates.operations import (
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
)
from repro.workloads import populate_university, university_schema
from repro.workloads.figures import course_info_object


def pick_course(engine):
    """A course with both grades and curriculum entries."""
    for values in engine.scan("COURSES"):
        cid = values[0]
        if engine.find_by("GRADES", ("course_id",), (cid,)) and engine.find_by(
            "CURRICULUM", ("course_id",), (cid,)
        ):
            return cid
    raise SystemExit("generated data had no fully connected course")


def main() -> None:
    penguin = Penguin(university_schema())
    populate_university(penguin.engine)
    penguin.register_object(course_info_object(penguin.graph))
    translator = penguin.translator("course_info")
    engine = penguin.engine

    course_id = pick_course(engine)
    print(f"working on course {course_id}")

    # --- enroll a student (partial insertion at the GRADES node) -----
    student = next(
        s for s in engine.scan("STUDENT")
        if engine.get("GRADES", (course_id, s[0])) is None
    )
    plan = translator.apply(engine, PartialInsertion(
        (course_id,),
        "GRADES",
        {"course_id": course_id, "student_id": student[0], "grade": "B"},
    ), "partial_insert")
    print(f"\nenrolled student {student[0]}:")
    print(plan.describe())

    # --- grade correction (partial update) ----------------------------
    plan = translator.apply(engine, PartialUpdate(
        (course_id,),
        "GRADES",
        {"course_id": course_id, "student_id": student[0], "grade": "B"},
        {"course_id": course_id, "student_id": student[0], "grade": "A"},
    ), "partial_update")
    print(f"\ncorrected the grade:")
    print(plan.describe())

    # --- withdraw (partial deletion) ----------------------------------
    plan = translator.apply(engine, PartialDeletion(
        (course_id,),
        "GRADES",
        {"course_id": course_id, "student_id": student[0], "grade": "A"},
    ), "partial_delete")
    print(f"\nwithdrew student {student[0]}:")
    print(plan.describe())

    # --- the EES345 scenario -------------------------------------------
    print("\n--- course renumbering (the paper's Section 6 example) ---")
    old = penguin.get("course_info", (course_id,))
    new = copy.deepcopy(old.to_dict())
    new["course_id"] = "EES345"
    new["dept_name"] = "Engineering Economic Systems"
    for dept in new.get("DEPARTMENT", []):
        dept["dept_name"] = "Engineering Economic Systems"
        dept["building"] = "Terman"
    for grade in new.get("GRADES", []):
        grade["course_id"] = "EES345"
    for entry in new.get("CURRICULUM", []):
        entry["course_id"] = "EES345"
    from repro import build_instance, diff_instances, render_diff

    print("object-level diff of the request:")
    print(
        render_diff(
            diff_instances(old, build_instance(old.view_object, new))
        )
    )
    plan = penguin.replace("course_info", old, new)
    print("\ntranslated into:")
    print(plan.describe())
    print(
        "\nnew department present:",
        engine.get("DEPARTMENT", ("Engineering Economic Systems",)),
    )
    print("database consistent:", penguin.is_consistent())

    # --- a more restrictive translator rejects the same request -------
    print("\n--- restrictive translator: DEPARTMENT may not be modified ---")
    penguin.choose_translator(
        "course_info", {"modify.DEPARTMENT.allowed": False}
    )
    old = penguin.get("course_info", ("EES345",))
    blocked = copy.deepcopy(old.to_dict())
    blocked["dept_name"] = "Symbolic Systems"
    for dept in blocked.get("DEPARTMENT", []):
        dept["dept_name"] = "Symbolic Systems"
    try:
        penguin.replace("course_info", old, blocked)
    except UpdateRejectedError as error:
        print("request rejected, as the DBA intended:")
        print("   ", error)
    print(
        "nothing leaked:",
        engine.get("DEPARTMENT", ("Symbolic Systems",)) is None,
    )


if __name__ == "__main__":
    main()
