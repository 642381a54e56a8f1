"""Update semantics through composite-path objects (ω′ of Figure 3).

When an object elides an intermediate relation (GRADES in ω′), the
linkage between the pivot and a path-connected component lives in the
database, not in the instance. These tests pin down the resulting
semantics:

* the dependency island of ω′ is just the pivot — deleting an instance
  removes the course (and, via global integrity, its grades), never the
  students;
* inserted STUDENT components become base tuples, but no GRADES linkage
  is invented (the object cannot express one) — documented behaviour;
* replacements of pivot attributes work exactly as on single-hop
  objects.
"""

import copy

import pytest

from repro.core.instantiation import Instantiator
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.structural.integrity import IntegrityChecker
from tests.conftest import completing


@pytest.fixture
def translator(omega_prime):
    return Translator(omega_prime)


def course_with_students(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError


class TestDeletion:
    def test_delete_removes_course_and_grades(
        self, translator, university_engine
    ):
        cid = course_with_students(university_engine)
        translator.apply(university_engine, CompleteDeletion((cid,)))
        assert university_engine.get("COURSES", (cid,)) is None
        # GRADES go via the global ownership cascade even though GRADES
        # is not part of ω'.
        assert (
            university_engine.find_by("GRADES", ("course_id",), (cid,)) == []
        )

    def test_students_survive(self, translator, university_engine):
        cid = course_with_students(university_engine)
        students = {
            v[1]
            for v in university_engine.find_by(
                "GRADES", ("course_id",), (cid,)
            )
        }
        translator.apply(university_engine, CompleteDeletion((cid,)))
        for sid in students:
            assert university_engine.get("STUDENT", (sid,)) is not None


class TestInsertion:
    def test_insert_does_not_invent_linkage(
        self, omega_prime, university_engine, university_graph
    ):
        """ω' cannot express the GRADES linkage: inserting an instance
        with STUDENT components creates/verifies the student tuples but
        no enrollment rows."""

        def completer(relation, schema, partial):
            completed = dict(partial)
            if relation == "COURSES":
                completed.setdefault("dept_name", "Physics")
            for attribute in schema.attributes:
                completed.setdefault(
                    attribute.name, None if attribute.nullable else "?"
                )
            return completed

        translator = Translator(
            omega_prime,
            policy=completing(completer),
        )
        student = next(iter(university_engine.scan("STUDENT")))
        translator.apply(
            university_engine,
            CompleteInsertion(
                {
                    "course_id": "OP1",
                    "title": "t",
                    "units": 1,
                    "level": "graduate",
                    "instructor_id": None,
                    "FACULTY": [],
                    "STUDENT": [
                        {
                            "person_id": student[0],
                            "degree_program": student[1],
                            "year": student[2],
                        }
                    ],
                },
            ),
        )
        assert university_engine.get("COURSES", ("OP1",)) is not None
        assert (
            university_engine.find_by("GRADES", ("course_id",), ("OP1",))
            == []
        )
        # Re-instantiating therefore shows no students: the instance
        # does not round-trip through a composite path. Documented.
        instance = Instantiator(translator.view_object).by_key(
            university_engine, ("OP1",)
        )
        assert instance.count_at("STUDENT") == 0
        assert IntegrityChecker(university_graph).is_consistent(
            university_engine
        )


class TestReplacement:
    def test_pivot_replacement_works(self, translator, university_engine):
        cid = course_with_students(university_engine)
        old = Instantiator(translator.view_object).by_key(
            university_engine, (cid,)
        )
        new = copy.deepcopy(old.to_dict())
        new["title"] = "Through Omega Prime"
        translator.apply(university_engine, Replacement(old, new))
        assert (
            university_engine.get("COURSES", (cid,))[1]
            == "Through Omega Prime"
        )

    def test_instructor_retarget(self, translator, university_engine):
        cid = course_with_students(university_engine)
        old = Instantiator(translator.view_object).by_key(
            university_engine, (cid,)
        )
        other_faculty = next(
            f[0]
            for f in university_engine.scan("FACULTY")
            if f[0] != old.root.values.get("instructor_id")
        )
        values = university_engine.get("FACULTY", (other_faculty,))
        new = copy.deepcopy(old.to_dict())
        new["instructor_id"] = other_faculty
        new["FACULTY"] = [
            {"person_id": values[0], "rank": values[1], "office": values[2]}
        ]
        translator.apply(university_engine, Replacement(old, new))
        assert university_engine.get("COURSES", (cid,))[5] == other_faculty

    def test_rekey_propagates_to_elided_grades(
        self, translator, university_engine
    ):
        """A pivot key change cascades through the *database* GRADES
        rows even though GRADES is invisible to ω'."""
        cid = course_with_students(university_engine)
        n_grades = len(
            university_engine.find_by("GRADES", ("course_id",), (cid,))
        )
        old = Instantiator(translator.view_object).by_key(
            university_engine, (cid,)
        )
        new = copy.deepcopy(old.to_dict())
        new["course_id"] = "OPKEY"
        translator.apply(university_engine, Replacement(old, new))
        migrated = university_engine.find_by(
            "GRADES", ("course_id",), ("OPKEY",)
        )
        assert len(migrated) == n_grades


def test_mn_relationship_representation(university_graph):
    """"m:n relationships are not modeled directly in the structural
    model but can be represented using combinations of connections" —
    COURSES m:n STUDENT is exactly the two ownerships into GRADES."""
    from repro.structural.connections import ConnectionKind

    owners = {
        c.source
        for c in university_graph.connections_to(
            "GRADES", ConnectionKind.OWNERSHIP
        )
    }
    assert owners == {"COURSES", "STUDENT"}
    # and ω' exposes the m:n pair through the composite path.
    from repro.workloads.figures import alternate_course_object

    omega_prime = alternate_course_object(university_graph)
    path = omega_prime.tree.node("STUDENT").path
    assert [t.connection.name for t in path] == [
        "courses_grades",
        "student_grades",
    ]
