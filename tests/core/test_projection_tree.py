"""Projection-tree structure and traversal orders."""

import pytest

from repro.errors import ViewObjectError
from repro.core.projection_tree import ProjectionTree
from repro.structural.connections import Connection, ConnectionKind, Traversal
from repro.structural.paths import ConnectionPath


def edge(source, target, kind=ConnectionKind.OWNERSHIP, name=None):
    connection = Connection(
        name or f"{source}_{target}", kind, source, target, ["k"], ["k"]
    )
    return ConnectionPath([Traversal(connection, forward=True)])


@pytest.fixture
def tree():
    tree = ProjectionTree("A")
    tree.add_child("A", "B", edge("A", "B"))
    tree.add_child("A", "C", edge("A", "C"))
    tree.add_child("B", "D", edge("B", "D"))
    return tree


def test_root(tree):
    assert tree.root.relation == "A"
    assert tree.root.parent_id is None


def test_children_order(tree):
    assert [c.relation for c in tree.children("A")] == ["B", "C"]


def test_parent(tree):
    assert tree.parent("D").node_id == "B"
    assert tree.parent("A") is None


def test_depth(tree):
    assert tree.depth("A") == 0
    assert tree.depth("D") == 2


def test_path_to_root(tree):
    assert [n.node_id for n in tree.path_to_root("D")] == ["D", "B", "A"]


def test_dfs_order(tree):
    assert [n.node_id for n in tree.dfs()] == ["A", "B", "D", "C"]


def test_bfs_order(tree):
    assert [n.node_id for n in tree.bfs()] == ["A", "B", "C", "D"]


def test_leaves(tree):
    assert {n.node_id for n in tree.leaves()} == {"D", "C"}


def test_copies_get_suffixed_ids(tree):
    node = tree.add_child("C", "B", edge("C", "B", name="second"))
    assert node.node_id == "B#2"
    assert len(tree.nodes_for_relation("B")) == 2


def test_relations_distinct(tree):
    tree.add_child("C", "B", edge("C", "B", name="second"))
    assert tree.relations() == ("A", "B", "C", "D")


def test_edge_must_match_parent_relation(tree):
    with pytest.raises(ViewObjectError):
        tree.add_child("A", "X", edge("B", "X"))


def test_edge_must_match_child_relation(tree):
    with pytest.raises(ViewObjectError):
        tree.add_child("A", "X", edge("A", "Y"))


def test_duplicate_node_id_rejected(tree):
    with pytest.raises(ViewObjectError):
        tree.add_child("A", "B", edge("A", "B", name="again"), node_id="B")


def test_unknown_node(tree):
    with pytest.raises(ViewObjectError):
        tree.node("Z")


def test_describe_contains_arrows(tree):
    assert "--*" in tree.describe()
