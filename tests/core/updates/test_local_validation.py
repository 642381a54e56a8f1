"""Step 1: local validation."""

import pytest

from repro.errors import LocalValidationError
from repro.core.instance import build_instance
from repro.core.updates.context import TranslationContext
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.local_validation import (
    validate_deletion,
    validate_insertion,
)
from repro.core.updates.policy import RelationPolicy, TranslatorPolicy
from tests.conftest import query_only


def validate_replacement(ctx, old, new):
    """Step 1 of a replacement on its own: the pass ``run_replacement``
    starts with."""
    CompiledProgram(ctx.view_object, ctx.analysis).replacement_delta(ctx, old, new)


def ctx_for(view_object, engine, policy=None):
    return TranslationContext(
        view_object, engine, policy or TranslatorPolicy()
    )


def minimal_instance(omega, course_id="C1"):
    return build_instance(
        omega,
        {
            "course_id": course_id,
            "title": "t",
            "units": 1,
            "level": "graduate",
            "dept_name": "Physics",
        },
    )


class TestGates:
    def test_insertion_gate(self, omega, university_engine):
        ctx = ctx_for(
            omega, university_engine, TranslatorPolicy(allow_insertion=False)
        )
        with pytest.raises(LocalValidationError):
            validate_insertion(ctx, minimal_instance(omega))

    def test_deletion_gate(self, omega, university_engine):
        ctx = ctx_for(
            omega, university_engine, TranslatorPolicy(allow_deletion=False)
        )
        with pytest.raises(LocalValidationError):
            validate_deletion(ctx, minimal_instance(omega))

    def test_replacement_gate(self, omega, university_engine):
        ctx = ctx_for(
            omega, university_engine, TranslatorPolicy(allow_replacement=False)
        )
        with pytest.raises(LocalValidationError):
            validate_replacement(
                ctx, minimal_instance(omega), minimal_instance(omega)
            )


class TestObjectIdentity:
    def test_wrong_object_rejected(
        self, omega, omega_prime, university_engine
    ):
        ctx = ctx_for(omega, university_engine)
        foreign = build_instance(
            omega_prime,
            {
                "course_id": "C1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "instructor_id": None,
            },
        )
        with pytest.raises(LocalValidationError, match="belongs to"):
            validate_insertion(ctx, foreign)

    def test_query_only_object_not_updatable(
        self, university_graph, university_engine
    ):
        readonly = query_only(
            university_graph,
            "ro",
            "COURSES",
            selections={"COURSES": ("course_id", "title")},
        )
        ctx = ctx_for(readonly, university_engine)
        instance = build_instance(
            readonly, {"course_id": "C1", "title": "t"}
        )
        with pytest.raises(LocalValidationError, match="query-only"):
            validate_insertion(ctx, instance)


class TestReplacementKeyDiscipline:
    def test_island_key_change_needs_permission(
        self, omega, university_engine
    ):
        policy = TranslatorPolicy()
        policy.set_relation(
            "COURSES", RelationPolicy(allow_key_replacement=False)
        )
        ctx = ctx_for(omega, university_engine, policy)
        with pytest.raises(LocalValidationError, match="island"):
            validate_replacement(
                ctx,
                minimal_instance(omega, "A1"),
                minimal_instance(omega, "A2"),
            )

    def test_island_key_change_allowed_by_default(
        self, omega, university_engine
    ):
        ctx = ctx_for(omega, university_engine)
        validate_replacement(
            ctx, minimal_instance(omega, "A1"), minimal_instance(omega, "A2")
        )

    def test_peninsula_key_change_always_prohibited(
        self, omega, university_engine
    ):
        ctx = ctx_for(omega, university_engine)
        old = build_instance(
            omega,
            {
                "course_id": "C1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "CURRICULUM": [
                    {"degree": "OLD", "course_id": "C1", "category": "x"}
                ],
            },
        )
        new = build_instance(
            omega,
            {
                "course_id": "C1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "CURRICULUM": [
                    {"degree": "NEW", "course_id": "C1", "category": "x"}
                ],
            },
        )
        with pytest.raises(LocalValidationError, match="peninsula"):
            validate_replacement(ctx, old, new)

    def test_peninsula_fk_part_change_is_fine(self, omega, university_engine):
        """The FK part of the peninsula key is system-maintained; a pivot
        key change implies it and must not be flagged."""
        ctx = ctx_for(omega, university_engine)
        old = build_instance(
            omega,
            {
                "course_id": "C1",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "CURRICULUM": [
                    {"degree": "MS", "course_id": "C1", "category": "x"}
                ],
            },
        )
        new = build_instance(
            omega,
            {
                "course_id": "C2",
                "title": "t",
                "units": 1,
                "level": "graduate",
                "dept_name": "Physics",
                "CURRICULUM": [
                    {"degree": "MS", "course_id": "C2", "category": "x"}
                ],
            },
        )
        validate_replacement(ctx, old, new)
