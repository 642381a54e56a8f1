"""Translator policies and the attribute completer."""

import pytest

from repro.errors import UpdateRejectedError
from repro.core.updates.operations import CompleteInsertion
from repro.core.updates.policy import (
    ReferenceRepair,
    RelationPolicy,
    TranslatorPolicy,
    null_completer,
)
from repro.workloads.university import university_schema
from tests.conftest import completing


class TestRelationPolicy:
    def test_defaults_permissive(self):
        policy = RelationPolicy()
        assert policy.can_modify and policy.can_insert
        assert policy.can_replace_existing
        assert policy.allow_key_replacement
        assert policy.allow_db_key_replacement
        assert not policy.allow_merge_on_key_conflict
        assert policy.on_reference_delete is ReferenceRepair.AUTO

    def test_copy_is_independent(self):
        original = RelationPolicy(can_modify=False)
        clone = original.copy()
        clone.can_modify = True
        assert not original.can_modify


class TestTranslatorPolicy:
    def test_for_relation_creates_default(self):
        policy = TranslatorPolicy()
        relation_policy = policy.for_relation("COURSES")
        assert relation_policy.can_modify
        # Same object comes back (mutations stick).
        relation_policy.can_modify = False
        assert not policy.for_relation("COURSES").can_modify

    def test_set_relation(self):
        policy = TranslatorPolicy()
        policy.set_relation("X", RelationPolicy(can_insert=False))
        assert not policy.for_relation("X").can_insert

    def test_read_only(self):
        policy = TranslatorPolicy.read_only()
        assert not policy.allow_insertion
        assert not policy.allow_deletion
        assert not policy.allow_replacement

    def test_permissive(self):
        policy = TranslatorPolicy.permissive()
        assert policy.allow_insertion and policy.allow_deletion
        assert policy.allow_replacement


class TestNullCompleter:
    def test_fills_nullable(self):
        schema = university_schema().relation("COURSES")
        completed = null_completer(
            "COURSES",
            schema,
            {
                "course_id": "X",
                "title": "t",
                "units": 1,
                "level": "g",
                "dept_name": "d",
            },
        )
        assert completed["instructor_id"] is None

    def test_rejects_non_nullable(self):
        schema = university_schema().relation("GRADES")
        with pytest.raises(UpdateRejectedError, match="grade"):
            null_completer("GRADES", schema, {"course_id": "X", "student_id": 1})

    def test_keeps_provided_values(self):
        schema = university_schema().relation("DEPARTMENT")
        completed = null_completer(
            "DEPARTMENT", schema, {"dept_name": "CS", "building": "Gates"}
        )
        assert completed["building"] == "Gates"
        assert completed["budget"] is None


class TestCustomCompleter:
    def test_completer_used_for_skeletons(self, omega, university_engine):
        from repro.core.updates.translator import Translator

        def completer(relation, schema, partial):
            completed = dict(partial)
            for attribute in schema.attributes:
                if attribute.name not in completed:
                    if attribute.domain.name == "text":
                        completed[attribute.name] = "DEFAULT"
                    elif attribute.nullable:
                        completed[attribute.name] = None
                    else:
                        completed[attribute.name] = 0
            return completed

        policy = completing(completer)
        translator = Translator(omega, policy=policy)
        translator.apply(
            university_engine,
            CompleteInsertion(
                {
                    "course_id": "COMP1",
                    "title": "t",
                    "units": 1,
                    "level": "graduate",
                    "dept_name": "Never Seen Before",
                },
            ),
        )
        skeleton = university_engine.get(
            "DEPARTMENT", ("Never Seen Before",)
        )
        assert skeleton[1] == "DEFAULT"
