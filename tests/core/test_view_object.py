"""View-object definitions: Definitions 3.1/3.2 and their validation."""

import pytest

from repro.errors import PivotError, ProjectionError, ViewObjectError
from repro.core.view_object import define_view_object
from repro.workloads.figures import course_info_object
from repro.workloads.university import university_schema
from tests.conftest import query_only


@pytest.fixture
def graph():
    return university_schema()


class TestFigure2cObject:
    def test_complexity(self, graph):
        omega = course_info_object(graph)
        assert omega.complexity == 5

    def test_pivot(self, graph):
        omega = course_info_object(graph)
        assert omega.pivot_relation == "COURSES"
        assert omega.pivot_node_id == "COURSES"

    def test_object_key(self, graph):
        omega = course_info_object(graph)
        assert omega.object_key == ("course_id",)

    def test_relations(self, graph):
        omega = course_info_object(graph)
        assert set(omega.relations()) == {
            "COURSES", "DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT",
        }

    def test_intermediate_artifacts_kept(self, graph):
        omega = course_info_object(graph)
        assert omega.subgraph is not None
        assert omega.maximal_tree is not None
        assert len(omega.maximal_tree) == 8

    def test_describe(self, graph):
        text = course_info_object(graph).describe()
        assert "complexity 5" in text
        assert "GRADES" in text


class TestValidation:
    def test_pivot_projection_must_include_key(self, graph):
        with pytest.raises(PivotError):
            define_view_object(
                graph, "bad", "COURSES",
                selections={"COURSES": ("title", "units", "dept_name")},
            )

    def test_updatable_requires_keys_everywhere(self, graph):
        with pytest.raises(ProjectionError):
            define_view_object(
                graph, "bad", "COURSES",
                selections={
                    "COURSES": ("course_id", "dept_name"),
                    "GRADES": ("course_id", "grade"),  # student_id missing
                },
            )

    def test_query_only_skips_key_requirement(self, graph):
        omega = query_only(
            graph, "readonly", "COURSES",
            selections={
                "COURSES": ("course_id", "dept_name"),
                "GRADES": ("course_id", "grade"),
            },
        )
        assert omega.complexity == 2

    def test_edge_attributes_must_be_projected(self, graph):
        with pytest.raises(ProjectionError, match="connecting attributes"):
            define_view_object(
                graph, "bad", "COURSES",
                selections={
                    # dept_name (edge to DEPARTMENT) missing from pivot.
                    "COURSES": ("course_id", "title"),
                    "DEPARTMENT": ("dept_name", "building"),
                },
            )

    def test_unknown_selection_node(self, graph):
        with pytest.raises(ViewObjectError, match="absent from the maximal"):
            define_view_object(
                graph, "bad", "COURSES",
                selections={"COURSES": ("course_id", "dept_name"), "STAFF": ("person_id",)},
            )

    def test_unknown_attribute_in_selection(self, graph):
        with pytest.raises(ProjectionError):
            define_view_object(
                graph, "bad", "COURSES",
                selections={"COURSES": ("course_id", "credits")},
            )

    def test_minimal_object_is_pivot_only(self, graph):
        omega = query_only(
            graph, "tiny", "COURSES",
            selections={"COURSES": ("course_id", "title")},
        )
        assert omega.complexity == 1
        assert omega.relations() == ("COURSES",)


class TestMultipleObjectsSamePivot:
    def test_several_objects_one_pivot(self, graph):
        """Several objects can be anchored on the same pivot relation."""
        first = course_info_object(graph)
        second = query_only(
            graph, "two", "COURSES",
            selections={"COURSES": ("course_id", "level")},
        )
        assert first.pivot_relation == second.pivot_relation
        assert first.complexity != second.complexity
