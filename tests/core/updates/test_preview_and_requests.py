"""Previews (plan without side effects) and request-object dispatch.

A preview is ``Translator.explain_batch``: the would-be plan of the same
requests ``apply`` / a batch write take, the database untouched."""

import copy

import pytest

from repro.core.instance import build_instance
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialInsertion,
    PartialUpdate,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.errors import UpdateError
from tests.conftest import batch_write


@pytest.fixture
def translator(omega):
    return Translator(omega)


def snapshot(engine, graph):
    return {name: sorted(engine.scan(name)) for name in graph.relation_names}


def any_course(engine):
    for values in engine.scan("COURSES"):
        if engine.find_by("GRADES", ("course_id",), (values[0],)):
            return values[0]
    raise AssertionError


class TestPreviews:
    def test_preview_delete_changes_nothing(
        self, translator, university_engine, university_graph
    ):
        before = snapshot(university_engine, university_graph)
        cid = any_course(university_engine)
        plan = translator.explain_batch(
            university_engine, [CompleteDeletion((cid,))]
        ).plan
        assert len(plan) >= 2
        assert snapshot(university_engine, university_graph) == before

    def test_preview_equals_applied_plan(self, translator, university_engine):
        cid = any_course(university_engine)
        previewed = translator.explain_batch(
            university_engine, [CompleteDeletion((cid,))]
        ).plan
        applied = translator.apply(university_engine, CompleteDeletion((cid,)))
        # Rollback re-inserts rows in reverse, permuting scan order, so
        # compare the plans as operation multisets.
        assert sorted(op.describe() for op in previewed) == sorted(
            op.describe() for op in applied
        )

    def test_preview_insert(self, translator, university_engine, university_graph):
        before = snapshot(university_engine, university_graph)
        plan = translator.explain_batch(
            university_engine,
            [
                CompleteInsertion(
                    {
                        "course_id": "PREVIEW1",
                        "title": "t",
                        "units": 1,
                        "level": "graduate",
                        "dept_name": "Physics",
                    }
                )
            ],
        ).plan
        assert plan.count("insert") == 1
        assert university_engine.get("COURSES", ("PREVIEW1",)) is None
        assert snapshot(university_engine, university_graph) == before

    def test_preview_replace(self, translator, university_engine):
        cid = any_course(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new = copy.deepcopy(old.to_dict())
        new["title"] = "Previewed Title"
        plan = translator.explain_batch(
            university_engine, [Replacement(old, new)]
        ).plan
        assert plan.count("replace") == 1
        assert university_engine.get("COURSES", (cid,))[1] != "Previewed Title"

    def test_preview_leaves_no_dangling_transaction(
        self, translator, university_engine
    ):
        cid = any_course(university_engine)
        translator.explain_batch(university_engine, [CompleteDeletion((cid,))])
        assert not university_engine.in_transaction


class TestMissingKey:
    @pytest.mark.parametrize(
        "call",
        [
            lambda t, engine: t.apply(engine, CompleteDeletion(None)),
            lambda t, engine: t.explain_batch(engine, [CompleteDeletion(None)]),
            lambda t, engine: batch_write(
                t, engine, [CompleteDeletion(None)], op="delete"
            ),
        ],
        ids=["delete", "preview_delete", "delete_many"],
    )
    def test_neither_instance_nor_key_is_an_update_error(
        self, translator, university_engine, university_graph, call
    ):
        """Not a bare ``TypeError`` from ``tuple(None)``: an UpdateError
        that names the view object."""
        before = snapshot(university_engine, university_graph)
        with pytest.raises(UpdateError, match="course_info") as caught:
            call(translator, university_engine)
        assert "key" in str(caught.value)
        assert snapshot(university_engine, university_graph) == before


class TestRequestDispatch:
    def test_complete_insertion_request(self, translator, omega, university_engine):
        instance = build_instance(
            omega,
            {
                "course_id": "REQ1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
            },
        )
        plan = translator.apply(university_engine, CompleteInsertion(instance))
        assert university_engine.get("COURSES", ("REQ1",)) is not None
        assert plan.count("insert") >= 1

    def test_complete_deletion_request(self, translator, university_engine):
        cid = any_course(university_engine)
        instance = translator.instantiate(university_engine, (cid,))
        translator.apply(university_engine, CompleteDeletion(instance))
        assert university_engine.get("COURSES", (cid,)) is None

    def test_replacement_request(self, translator, university_engine):
        cid = any_course(university_engine)
        old = translator.instantiate(university_engine, (cid,))
        new_instance = build_instance(
            old.view_object,
            {**copy.deepcopy(old.to_dict()), "title": "Via Request"},
        )
        translator.apply(university_engine, Replacement(old, new_instance))
        assert university_engine.get("COURSES", (cid,))[1] == "Via Request"

    def test_partial_requests(self, translator, university_engine):
        cid = any_course(university_engine)
        instance = translator.instantiate(university_engine, (cid,))
        student = next(
            s
            for s in university_engine.scan("STUDENT")
            if university_engine.get("GRADES", (cid, s[0])) is None
        )
        translator.apply(
            university_engine,
            PartialInsertion(
                instance,
                "GRADES",
                {"course_id": cid, "student_id": student[0], "grade": "C"},
            ),
        )
        assert university_engine.get("GRADES", (cid, student[0])) is not None
        translator.apply(
            university_engine,
            PartialUpdate(
                instance,
                "GRADES",
                {"course_id": cid, "student_id": student[0], "grade": "C"},
                {"course_id": cid, "student_id": student[0], "grade": "B"},
            ),
        )
        assert (
            university_engine.get("GRADES", (cid, student[0]))[2] == "B"
        )

    def test_unknown_request(self, translator, university_engine):
        with pytest.raises(UpdateError):
            translator.apply(university_engine, object())

    def test_request_reprs(self, translator, omega, university_engine):
        cid = any_course(university_engine)
        instance = translator.instantiate(university_engine, (cid,))
        assert cid in repr(CompleteInsertion(instance))
        assert cid in repr(CompleteDeletion(instance))
        assert "GRADES" in repr(
            PartialInsertion(instance, "GRADES", {})
        )
