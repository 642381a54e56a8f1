"""The flat-view translator."""

import pytest

from repro.errors import UpdateError, UpdateRejectedError
from repro.keller.translator import KellerTranslator
from repro.keller.views import JoinEdge, RelationalView


@pytest.fixture
def view():
    return RelationalView(
        "cd",
        ["COURSES", "DEPARTMENT"],
        [JoinEdge("COURSES", "DEPARTMENT", [("dept_name", "dept_name")])],
        projection=[
            "COURSES.course_id",
            "COURSES.title",
            "DEPARTMENT.dept_name",
        ],
    )


def first_view_tuple(view, engine):
    row = view.tuples(engine)[0]
    return dict(zip(view.projection, row))


class TestDeletion:
    def test_deletes_via_chosen_relation(self, view, university_engine):
        translator = KellerTranslator(view)
        translator.delete_target = "COURSES"
        vt = first_view_tuple(view, university_engine)
        translator.delete(university_engine, vt)
        assert (
            university_engine.get("COURSES", (vt["COURSES.course_id"],))
            is None
        )
        assert (
            university_engine.get(
                "DEPARTMENT", (vt["DEPARTMENT.dept_name"],)
            )
            is not None
        )

    def test_default_target_is_anchor(self, view):
        assert KellerTranslator(view).delete_target == "COURSES"

    def test_missing_tuple(self, view, university_engine):
        translator = KellerTranslator(view)
        with pytest.raises(UpdateError):
            translator.delete(
                university_engine, {"COURSES.course_id": "GHOST"}
            )


class TestInsertion:
    def test_inserts_missing(self, view, university_engine):
        translator = KellerTranslator(view)
        translator.insert(
            university_engine,
            {
                "COURSES": ("NEWK1", "t", 1, "graduate", "Physics", None),
                "DEPARTMENT": university_engine.get("DEPARTMENT", ("Physics",)),
            },
        )
        assert university_engine.get("COURSES", ("NEWK1",)) is not None

    def test_insert_blocked_by_choice(self, view, university_engine):
        translator = KellerTranslator(view)
        translator.insertable = {"COURSES"}
        with pytest.raises(UpdateRejectedError):
            translator.insert(
                university_engine,
                {
                    "COURSES": ("NEWK2", "t", 1, "graduate", "NewDept", None),
                    "DEPARTMENT": ("NewDept", None, None),
                },
            )
        assert university_engine.get("COURSES", ("NEWK2",)) is None  # rollback

    def test_conflicting_existing_rejected(self, view, university_engine):
        translator = KellerTranslator(view)
        existing = university_engine.get("DEPARTMENT", ("Physics",))
        with pytest.raises(UpdateRejectedError):
            translator.insert(
                university_engine,
                {
                    "COURSES": ("NEWK3", "t", 1, "graduate", "Physics", None),
                    "DEPARTMENT": ("Physics", "Different Building", 1),
                },
            )


class TestReplacement:
    def test_nonjoin_change(self, view, university_engine):
        translator = KellerTranslator(view)
        vt = first_view_tuple(view, university_engine)
        translator.replace(
            university_engine, vt, {"COURSES.title": "Retitled"}
        )
        assert (
            university_engine.get("COURSES", (vt["COURSES.course_id"],))[1]
            == "Retitled"
        )

    def test_join_change_left_side(self, view, university_engine):
        translator = KellerTranslator(view)
        vt = first_view_tuple(view, university_engine)
        old_dept = vt["DEPARTMENT.dept_name"]
        translator.replace(
            university_engine, vt, {"COURSES.dept_name": "Philosophy"}
        )
        course = university_engine.get(
            "COURSES", (vt["COURSES.course_id"],)
        )
        assert course[4] == "Philosophy"
        assert university_engine.get("DEPARTMENT", (old_dept,)) is not None

    def test_join_change_both_sides(self, view, university_engine):
        translator = KellerTranslator(view)
        translator.join_change_side = "both"
        vt = first_view_tuple(view, university_engine)
        old_dept = vt["DEPARTMENT.dept_name"]
        translator.replace(
            university_engine, vt, {"COURSES.dept_name": "Fresh Dept"}
        )
        assert university_engine.get("DEPARTMENT", (old_dept,)) is None
        assert university_engine.get("DEPARTMENT", ("Fresh Dept",)) is not None
