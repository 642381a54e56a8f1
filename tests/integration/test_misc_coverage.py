"""Direct tests for smaller public entry points."""


import pytest

from repro.core.dependency_island import analyze_island
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext
from repro.core.updates.operations import PartialDeletion
from repro.core.updates.policy import TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.relational.sqlite_engine import SqliteEngine
from repro.structural.connections import Traversal
from tests import reference_translate
from tests.reference_walk import connection_entry


def test_maintain_all_runs_every_pass(omega, university_engine):
    """maintain_all = deletions, then key changes, then insertions —
    through the compiled program, then through its oracle."""
    program = CompiledProgram(omega, analyze_island(omega))
    for reference in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                reference_translate.install(patch)
            ctx = TranslationContext(
                omega, university_engine, TranslatorPolicy()
            )
            course = next(
                v
                for v in university_engine.scan("COURSES")
                if university_engine.find_by(
                    "GRADES", ("course_id",), (v[0],)
                )
            )
            ctx.delete("COURSES", (course[0],), reason="seed")
            program.maintain_all(ctx)
            assert (
                university_engine.find_by(
                    "GRADES", ("course_id",), (course[0],)
                )
                == []
            )


def test_connection_entry(university_graph, university_engine):
    connection = university_graph.connection("courses_grades")
    course = next(iter(university_engine.scan("COURSES")))
    entry = connection_entry(
        university_engine, "COURSES", course, connection.source_attributes
    )
    assert entry == (course[0],)


def test_traversal_end_attributes(university_graph):
    connection = university_graph.connection("student_grades")
    forward = Traversal(connection, True)
    assert forward.start_attributes == ("person_id",)
    assert forward.end_attributes == ("student_id",)
    inverse = forward.inverse()
    assert inverse.start_attributes == ("student_id",)
    assert inverse.end_attributes == ("person_id",)


def test_sqlite_close():
    engine = SqliteEngine()
    engine.close()
    with pytest.raises(Exception):
        engine._connection.execute("SELECT 1")


def test_partial_deletion_request_dispatch(omega, university_engine):
    translator = Translator(omega)
    course = next(
        v
        for v in university_engine.scan("COURSES")
        if university_engine.find_by("GRADES", ("course_id",), (v[0],))
    )
    grade = university_engine.find_by(
        "GRADES", ("course_id",), (course[0],)
    )[0]
    instance = translator.instantiate(university_engine, (course[0],))
    translator.apply(
        university_engine,
        PartialDeletion(
            instance,
            "GRADES",
            {
                "course_id": grade[0],
                "student_id": grade[1],
                "grade": grade[2],
            },
        ), "partial_delete",
    )
    assert university_engine.get("GRADES", (grade[0], grade[1])) is None
