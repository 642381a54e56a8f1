"""Translator.explain: the would-be plan, without execution.

The acceptance bar: an explanation must *agree with the executed plan*
on relations touched and operation kinds, and must leave the engine
untouched.
"""

import pytest

from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    Replacement,
)
from repro.core.updates.translator import Translator
from repro.penguin import Penguin
from tests.conftest import Heard
from tests.core.updates.test_insertion import existing_student, new_course


@pytest.fixture
def translator(omega):
    return Translator(omega)


def kinds_of(plan):
    counts = {}
    for op in plan.operations:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts


def snapshot(engine):
    return {
        name: sorted(map(repr, engine.scan(name)))
        for name in engine.relation_names()
    }


class TestExplainAgreesWithExecution:
    def test_insert(self, translator, university_engine):
        data = new_course(
            university_engine, student=existing_student(university_engine)
        )
        explanation = translator.explain_batch(
            university_engine, [CompleteInsertion(data)]
        )
        executed = translator.apply(university_engine, CompleteInsertion(data))
        assert explanation.relations_touched == executed.relations_touched()
        assert explanation.op_kinds == kinds_of(executed)

    def test_delete(self, translator, university_engine):
        translator.apply(
            university_engine, CompleteInsertion(new_course(university_engine))
        )
        instance = translator.instantiate(university_engine, ("CS999",))
        explanation = translator.explain_batch(
            university_engine, [CompleteDeletion(instance)]
        )
        executed = translator.apply(
            university_engine, CompleteDeletion(instance)
        )
        assert explanation.relations_touched == executed.relations_touched()
        assert explanation.op_kinds == kinds_of(executed)

    def test_replace(self, translator, university_engine):
        translator.apply(
            university_engine, CompleteInsertion(new_course(university_engine))
        )
        old = translator.instantiate(university_engine, ("CS999",))
        new = old.to_dict()
        new["title"] = "Renamed"
        explanation = translator.explain_batch(
            university_engine, [Replacement(old, new)]
        )
        executed = translator.apply(university_engine, Replacement(old, new))
        assert explanation.relations_touched == executed.relations_touched()
        assert explanation.op_kinds == kinds_of(executed)


class TestExplainIsSideEffectFree:
    def test_engine_untouched(self, translator, university_engine):
        before = snapshot(university_engine)
        translator.explain_batch(
            university_engine,
            [CompleteInsertion(new_course(university_engine))],
        )
        assert snapshot(university_engine) == before

    def test_changelog_untouched(self, translator, university_engine):
        heard = Heard(university_engine)
        counters = university_engine.operation_counters()
        translator.explain_batch(
            university_engine,
            [CompleteInsertion(new_course(university_engine))],
        )
        assert heard.take() == []
        assert university_engine.operation_counters() == counters

    def test_rejection_surfaces_without_side_effects(
        self, translator, university_engine
    ):
        from repro.errors import UpdateRejectedError

        translator.apply(
            university_engine, CompleteInsertion(new_course(university_engine))
        )
        before = snapshot(university_engine)
        with pytest.raises(UpdateRejectedError):
            # Inserting the identical course again hits CASE 1 in the
            # island: the explanation raises like the execution would.
            translator.explain_batch(
                university_engine,
                [CompleteInsertion(new_course(university_engine))],
            )
        assert snapshot(university_engine) == before


class TestExplainReporting:
    def test_render_sections(self, translator, university_engine):
        explanation = translator.explain_batch(
            university_engine,
            [CompleteInsertion(new_course(university_engine))],
        )
        text = explanation.render()
        assert text.startswith("update translation on 'course_info'")
        assert "relations        : COURSES" in text
        assert "island           : COURSES, GRADES" in text
        assert "courses_department" in text
        assert "verify integrity" not in text
        assert "coalescing" not in text

    def test_to_dict_round_trips_the_facts(self, translator, university_engine):
        explanation = translator.explain_batch(
            university_engine,
            [CompleteInsertion(new_course(university_engine))],
        )
        data = explanation.to_dict()
        assert data["object"] == "course_info"
        assert data["operation"] == "insert"
        assert data["relations_touched"] == list(explanation.relations_touched)
        assert data["raw_ops"] == len(explanation.plan)

    def test_islands_and_rules_reported(self, translator, university_engine):
        explanation = translator.explain_batch(
            university_engine,
            [CompleteInsertion(new_course(university_engine))],
        )
        assert explanation.island_relations == ("COURSES", "GRADES")
        assert any(
            "courses_department" in rule for rule in explanation.connections
        )


class TestExplainBatch:
    def test_batch_coalescing_reported(self, translator, university_engine):
        """A batch reports the plan it would land: its requests' plans
        concatenated, nothing folded."""
        requests = [
            CompleteInsertion(
                new_course(university_engine, course_id=f"CS90{i}")
            )
            for i in range(3)
        ]
        explanation = translator.explain_batch(university_engine, requests)
        assert explanation.items == 3
        assert explanation.operation == "insert"
        singles = [
            translator.explain_batch(university_engine, [request]).plan
            for request in requests
        ]
        assert explanation.plan.operations == [
            op for plan in singles for op in plan.operations
        ]
        assert explanation.op_kinds.get("insert", 0) >= 3

    def test_later_requests_see_earlier_effects(
        self, translator, university_engine
    ):
        data = new_course(university_engine)
        explanation = translator.explain_batch(
            university_engine,
            [CompleteInsertion(data), CompleteDeletion(data)],
        )
        assert explanation.operation == "mixed"
        # The delete translates against the buffered insert: the plan
        # inserts the course and deletes it again, and the database is
        # left as it was.
        kinds = [(op.kind, op.relation) for op in explanation.plan]
        assert kinds[0] == ("insert", "COURSES")
        assert ("delete", "COURSES") in kinds
        assert university_engine.get("COURSES", (data["course_id"],)) is None

    def test_empty_batch(self, translator, university_engine):
        explanation = translator.explain_batch(university_engine, [])
        assert explanation.operation == "empty"
        assert len(explanation.plan) == 0
        assert "no operations" in explanation.render()


class TestPenguinExplain:
    def test_explain_update_facade(self, university_graph):
        from repro.workloads.figures import course_info_object
        from repro.workloads.university import populate_university

        session = Penguin(university_graph)
        populate_university(session.engine)
        session.register_object(course_info_object(university_graph))
        explanation = session.explain_update(
            "course_info",
            CompleteInsertion(new_course(session.engine)),
        )
        assert explanation.object_name == "course_info"
        assert explanation.relations_touched == ("COURSES",)
