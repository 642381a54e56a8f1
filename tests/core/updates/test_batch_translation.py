"""Translator / Penguin batch translation APIs: insert_many,
delete_many, apply_plan_batch, and the answers-coercion fix."""

import pytest

from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.errors import UpdateError
from repro.relational.operations import Delete, Insert
from repro.penguin import Penguin
from repro.workloads.figures import course_info_object
from repro.workloads.university import populate_university, university_schema


def new_course(i, **overrides):
    data = {
        "course_id": f"BAT{i:03d}",
        "title": f"Batch {i}",
        "units": 3,
        "level": "graduate",
        "dept_name": "Computer Science",
        "DEPARTMENT": [],
        "CURRICULUM": [],
        "GRADES": [],
    }
    data.update(overrides)
    return data


def bat_row(i):
    """The COURSES row :func:`new_course` inserts."""
    return (f"BAT{i:03d}", f"Batch {i}", 3, "graduate", "Computer Science", None)


@pytest.fixture
def session():
    graph = university_schema()
    penguin = Penguin(graph)
    populate_university(penguin.engine)
    penguin.register_object(course_info_object(graph))
    return penguin


class TestInsertMany:
    def test_batch_inserts_all(self, session):
        plan = session.insert_many(
            "course_info", [new_course(i) for i in range(10)]
        )
        assert plan.count("insert") >= 10
        for i in range(10):
            assert session.get("course_info", (f"BAT{i:03d}",)) is not None
        assert session.is_consistent()

    def test_matches_sequential_loop(self, session):
        batch = [new_course(i) for i in range(6)]
        session.insert_many("course_info", batch)
        sequential = Penguin(university_schema())
        populate_university(sequential.engine)
        sequential.register_object(course_info_object(sequential.graph))
        for data in batch:
            sequential.insert("course_info", data)
        for name in session.engine.relation_names():
            assert sorted(session.engine.scan(name)) == sorted(
                sequential.engine.scan(name)
            ), name

    def test_duplicate_within_batch_fails_atomically(self, session):
        before = session.engine.count("COURSES")
        batch = [new_course(0), new_course(1), new_course(0, title="again")]
        with pytest.raises(UpdateError):
            session.insert_many("course_info", batch)
        assert session.engine.count("COURSES") == before

    def test_empty_batch_is_noop(self, session):
        plan = session.insert_many("course_info", [])
        assert len(plan) == 0


class TestDeleteMany:
    def test_delete_by_keys(self, session):
        session.insert_many("course_info", [new_course(i) for i in range(4)])
        plan = session.delete_many(
            "course_info", [(f"BAT{i:03d}",) for i in range(4)]
        )
        assert plan.count("delete") >= 4
        assert session.get("course_info", ("BAT000",)) is None
        assert session.is_consistent()

    def test_delete_by_instances(self, session):
        session.insert_many("course_info", [new_course(i) for i in range(3)])
        instances = [
            session.get("course_info", (f"BAT{i:03d}",)) for i in range(3)
        ]
        session.delete_many("course_info", instances)
        assert session.get("course_info", ("BAT001",)) is None

    def test_missing_key_fails_atomically(self, session):
        session.insert_many("course_info", [new_course(0)])
        before = session.engine.count("COURSES")
        with pytest.raises(UpdateError):
            session.delete_many("course_info", [("BAT000",), ("ABSENT",)])
        assert session.engine.count("COURSES") == before


class TestApplyPlanBatch:
    def test_mixed_request_kinds(self, session):
        translator = session.translator("course_info")
        session.insert("course_info", new_course(0))
        old = session.get("course_info", ("BAT000",))
        replacement = dict(old.to_dict())
        replacement["title"] = "Replaced"
        requests = [
            CompleteInsertion(
                translator._coerce_instance(new_course(1))
            ),
            Replacement(old, translator._coerce_instance(replacement)),
        ]
        plan = session.apply_plan_batch("course_info", requests)
        assert len(plan) >= 2
        assert (
            session.get("course_info", ("BAT000",)).root.values["title"]
            == "Replaced"
        )
        assert session.get("course_info", ("BAT001",)) is not None

    def test_insert_then_delete_same_instance_coalesces_away(self, session):
        """The batch lands both requests' operations, as emitted: the
        row is inserted and deleted again, and nothing is left."""
        translator = session.translator("course_info")
        instance = translator._coerce_instance(new_course(7))
        before = session.engine.count("COURSES")
        plan = session.apply_plan_batch(
            "course_info",
            [CompleteInsertion(instance), CompleteDeletion(instance)],
        )
        assert plan.operations == [
            Insert("COURSES", bat_row(7)),
            Delete("COURSES", ("BAT007",)),
        ]
        assert session.engine.count("COURSES") == before
        assert session.get("course_info", ("BAT007",)) is None

    def test_later_request_sees_earlier_effects(self, session):
        translator = session.translator("course_info")
        # delete-by-key resolves against the buffer, so it can see the
        # instance inserted earlier in the same batch
        plan = session.apply_plan_batch(
            "course_info",
            [
                CompleteInsertion(translator._coerce_instance(new_course(9))),
                CompleteDeletion(("BAT009",)),
            ],
        )
        assert plan.operations == [
            Insert("COURSES", bat_row(9)),
            Delete("COURSES", ("BAT009",)),
        ]
        assert session.get("course_info", ("BAT009",)) is None


class TestAnswersCoercion:
    """Satellite: a bare string silently became ScriptedAnswers."""

    def test_string_rejected(self, session):
        with pytest.raises(TypeError, match="string"):
            session.choose_translator("course_info", answers="yes")

    def test_bool_and_mapping_still_work(self, session):
        session.choose_translator("course_info", answers=True)
        session.choose_translator("course_info", answers={})
