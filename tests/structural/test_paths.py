"""Connection paths over the structural graph."""

import pytest

from repro.structural.connections import Traversal
from repro.structural.paths import ConnectionPath
from repro.workloads.university import university_schema


@pytest.fixture
def graph():
    return university_schema()


def path(graph, *hops):
    """A path of ``(connection name, forward)`` hops."""
    return ConnectionPath(
        [Traversal(graph.connection(name), forward) for name, forward in hops]
    )


def test_paths_courses_to_student(graph):
    # The two-hop path of Figure 3.
    figure3 = path(graph, ("courses_grades", True), ("student_grades", False))
    assert figure3.describe() == "COURSES --* GRADES *-- STUDENT"


def test_two_hop_path_length_and_relations(graph):
    figure3 = path(graph, ("courses_grades", True), ("student_grades", False))
    assert len(figure3) == 2
    assert figure3.relations == ("COURSES", "GRADES", "STUDENT")


def test_path_relations_property(graph):
    curriculum = path(
        graph, ("curriculum_courses", True), ("courses_grades", True)
    )
    assert curriculum.relations[0] == "CURRICULUM"
    assert curriculum.relations[-1] == "GRADES"


def test_bad_chain_rejected(graph):
    with pytest.raises(ValueError):
        path(graph, ("courses_grades", True), ("people_student", True))
