"""Translation context: recorded mutations and helpers."""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.errors import UpdateRejectedError
from repro.core.updates.compiled import CompiledProgram
from repro.core.updates.context import TranslationContext
from repro.core.updates.policy import TranslatorPolicy
from tests import reference_translate


@pytest.fixture
def ctx(omega, university_engine):
    return TranslationContext(omega, university_engine, TranslatorPolicy())


@pytest.fixture
def helpers(ctx, translation_mode):
    """Key / merge / match for one node, from whichever implementation
    the sweep selected: the program's :class:`CompiledNode` records, or
    the walk's context helpers they replaced."""
    if translation_mode == "reference":
        return SimpleNamespace(
            merge_with_existing=partial(
                reference_translate.merge_with_existing, ctx
            ),
            key_from_values=partial(reference_translate.key_from_values, ctx),
            projected_values_match=partial(
                reference_translate.projected_values_match, ctx
            ),
        )
    nodes = CompiledProgram(ctx.view_object, ctx.analysis).nodes
    return SimpleNamespace(
        merge_with_existing=lambda node_id, values, existing: nodes[
            node_id
        ].merge_row(values, existing),
        key_from_values=lambda node_id, values: nodes[node_id].key_from(values),
        projected_values_match=lambda node_id, values, existing: nodes[
            node_id
        ].projected_match(values, existing),
    )


def any_course(engine):
    return next(iter(engine.scan("COURSES")))


class TestRecordedMutations:
    def test_insert_recorded(self, ctx, university_engine):
        ctx.insert(
            "DEPARTMENT", ("New Dept", None, None), reason="test"
        )
        assert ("DEPARTMENT", ("New Dept", None, None)) in ctx.inserted
        assert len(ctx.plan) == 1
        assert university_engine.get("DEPARTMENT", ("New Dept",)) is not None

    def test_delete_returns_old_and_records(self, ctx, university_engine):
        course = any_course(university_engine)
        old = ctx.delete("COURSES", (course[0],), reason="test")
        assert old == course
        assert ("COURSES", course) in ctx.deleted

    def test_delete_missing_rejected(self, ctx):
        with pytest.raises(UpdateRejectedError):
            ctx.delete("COURSES", ("GHOST",), reason="test")

    def test_replace_records_key_change(self, ctx, university_engine):
        course = any_course(university_engine)
        new = ("ZZZ1",) + course[1:]
        ctx.replace("COURSES", (course[0],), new, reason="test")
        assert ctx.key_changes == [("COURSES", (course[0],), ("ZZZ1",))]

    def test_nonkey_replace_no_key_change(self, ctx, university_engine):
        course = any_course(university_engine)
        new = course[:1] + ("New Title",) + course[2:]
        ctx.replace("COURSES", (course[0],), new, reason="test")
        assert ctx.key_changes == []
        assert ctx.replaced[0][0] == "COURSES"

    def test_replace_missing_rejected(self, ctx):
        with pytest.raises(UpdateRejectedError):
            ctx.replace("COURSES", ("GHOST",), ("GHOST", "t", 1, "g", "d", None), reason="r")


class TestHelpers:
    def test_complete_fills_nulls(self, ctx):
        values = ctx.complete(
            "COURSES",
            {
                "course_id": "X",
                "title": "t",
                "units": 1,
                "level": "g",
                "dept_name": "Physics",
            },
        )
        assert values == ("X", "t", 1, "g", "Physics", None)

    def test_merge_with_existing(self, helpers, university_engine):
        course = any_course(university_engine)
        merged = helpers.merge_with_existing(
            "COURSES", {"title": "Patched"}, course
        )
        assert merged[1] == "Patched"
        assert merged[5] == course[5]  # projected-out attr preserved

    def test_key_from_values(self, helpers):
        assert helpers.key_from_values("GRADES", {
            "course_id": "C", "student_id": 3, "grade": "A",
        }) == ("C", 3)

    def test_key_from_values_missing(self, helpers):
        with pytest.raises(UpdateRejectedError):
            helpers.key_from_values("GRADES", {"course_id": "C"})

    def test_projected_values_match(self, helpers, university_engine):
        course = any_course(university_engine)
        values = {
            "course_id": course[0],
            "title": course[1],
            "units": course[2],
            "level": course[3],
            "dept_name": course[4],
        }
        assert helpers.projected_values_match("COURSES", values, course)
        values["title"] = "other"
        assert not helpers.projected_values_match("COURSES", values, course)
