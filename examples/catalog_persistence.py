#!/usr/bin/env python
"""Saving and restoring a PENGUIN session.

"A view object is an uninstantiated window onto the underlying database;
that is, only its definition is saved while base data remains stored in
the relational database." This example saves all three layers — the
structural schema, the object catalog with its dialog-chosen policies,
and the base data — to JSON, then reconstructs a working session from
the files alone and previews an update before applying it.

Run:  python examples/catalog_persistence.py
"""

import json
import tempfile
from pathlib import Path

from repro import Penguin
from repro.core.updates.operations import CompleteDeletion
from repro.relational.persistence import dump_database, load_database
from repro.structural.serialization import graph_from_dict, graph_to_dict
from repro.workloads import populate_university, university_schema
from repro.workloads.figures import course_info_object


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="penguin_"))

    # ----- session 1: define, choose a translator, save ---------------
    first = Penguin(university_schema())
    populate_university(first.engine)
    first.register_object(course_info_object(first.graph))
    first.choose_translator(
        "course_info", {"modify.DEPARTMENT.allowed": False}
    )

    (workdir / "schema.json").write_text(
        json.dumps(graph_to_dict(first.graph), indent=2)
    )
    (workdir / "catalog.json").write_text(
        json.dumps(first.export_catalog(), indent=2)
    )
    (workdir / "data.json").write_text(
        json.dumps(dump_database(first.engine))
    )
    print("saved session to a temporary directory:")
    for name in ("schema.json", "catalog.json", "data.json"):
        print(f"  {name}: {(workdir / name).stat().st_size} bytes")

    # ----- session 2: restore everything from disk ---------------------
    graph = graph_from_dict(json.loads((workdir / "schema.json").read_text()))
    second = Penguin(graph, install=False)
    load_database(second.engine, json.loads((workdir / "data.json").read_text()))
    loaded = second.import_catalog(
        json.loads((workdir / "catalog.json").read_text())
    )
    print("\nrestored objects:", loaded)
    print("restored data consistent:", second.is_consistent())

    # The restored translator still enforces the saved dialog choices.
    translator = second.translator("course_info")
    print(
        "DEPARTMENT still locked:",
        not translator.policy.for_relation("DEPARTMENT").can_modify,
    )

    # Preview an update without touching the database.
    course_id = next(iter(second.engine.scan("COURSES")))[0]
    request = CompleteDeletion((course_id,))
    plan = second.explain_update("course_info", request).plan
    print(f"\npreview: deleting {course_id} would apply {len(plan)} operations:")
    print(plan.describe())
    print(
        "database untouched:",
        second.engine.get("COURSES", (course_id,)) is not None,
    )


if __name__ == "__main__":
    main()
