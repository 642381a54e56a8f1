"""Figure 2(c) and Figure 3 canonical objects."""

from repro.core.dependency_island import NodeRole, analyze_island
from repro.workloads.figures import alternate_course_object, course_info_object
from tests.core.test_dependency_island import with_role


class TestOmega:
    def test_matches_figure_2c(self, university_graph):
        omega = course_info_object(university_graph)
        assert omega.complexity == 5
        assert set(omega.tree.node_ids) == {
            "COURSES", "DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT",
        }

    def test_student_under_grades(self, university_graph):
        omega = course_info_object(university_graph)
        assert omega.tree.parent("STUDENT").relation == "GRADES"

    def test_section5_island(self, university_graph):
        analysis = analyze_island(course_info_object(university_graph))
        assert analysis.island_nodes == ["COURSES", "GRADES"]
        assert with_role(analysis, NodeRole.PENINSULA) == ["CURRICULUM"]


class TestOmegaPrime:
    def test_matches_figure_3(self, university_graph):
        omega_prime = alternate_course_object(university_graph)
        assert omega_prime.complexity == 3
        assert set(omega_prime.tree.node_ids) == {
            "COURSES", "FACULTY", "STUDENT",
        }

    def test_student_edge_is_two_connections(self, university_graph):
        """'the edge from COURSES to STUDENT is no longer a structural
        connection but rather a path of two connections'."""
        omega_prime = alternate_course_object(university_graph)
        student = omega_prime.tree.node("STUDENT")
        assert len(student.path) == 2
        assert student.path.describe() == "COURSES --* GRADES *-- STUDENT"

    def test_same_pivot_as_omega(self, university_graph):
        omega = course_info_object(university_graph)
        omega_prime = alternate_course_object(university_graph)
        assert omega.pivot_relation == omega_prime.pivot_relation == "COURSES"
