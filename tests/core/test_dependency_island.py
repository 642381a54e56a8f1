"""Dependency islands and peninsulas (the Section 5 example)."""

from repro.core.dependency_island import NodeRole, analyze_island


def with_role(analysis, role):
    """The nodes of ``role``, pivot first (breadth-first)."""
    return [
        node.node_id
        for node in analysis.view_object.tree.bfs()
        if analysis.role(node.node_id) is role
    ]


class TestPaperExample:
    """For ω (Figure 2c): D_ω = {COURSES, GRADES}; peninsula = {CURRICULUM}."""

    def test_island(self, omega):
        analysis = analyze_island(omega)
        assert analysis.island_nodes == ["COURSES", "GRADES"]

    def test_peninsula(self, omega):
        analysis = analyze_island(omega)
        assert with_role(analysis, NodeRole.PENINSULA) == ["CURRICULUM"]

    def test_outside(self, omega):
        analysis = analyze_island(omega)
        assert set(with_role(analysis, NodeRole.OUTSIDE)) == {"DEPARTMENT", "STUDENT"}

    def test_island_relations(self, omega):
        analysis = analyze_island(omega)
        assert analysis.island_relations == ["COURSES", "GRADES"]

    def test_roles(self, omega):
        analysis = analyze_island(omega)
        assert analysis.role("COURSES") is NodeRole.ISLAND
        assert analysis.role("CURRICULUM") is NodeRole.PENINSULA
        assert analysis.role("DEPARTMENT") is NodeRole.OUTSIDE
        assert analysis.is_island("GRADES")
        assert not analysis.is_island("STUDENT")

    def test_describe(self, omega):
        text = analyze_island(omega).describe()
        assert "CURRICULUM: peninsula" in text


class TestOmegaPrime:
    """ω′ (Figure 3): island is just the pivot; no peninsulas."""

    def test_island_only_pivot(self, omega_prime):
        analysis = analyze_island(omega_prime)
        assert analysis.island_nodes == ["COURSES"]

    def test_no_peninsulas(self, omega_prime):
        analysis = analyze_island(omega_prime)
        assert with_role(analysis, NodeRole.PENINSULA) == []

    def test_collapsed_path_is_outside(self, omega_prime):
        analysis = analyze_island(omega_prime)
        assert analysis.role("STUDENT") is NodeRole.OUTSIDE


class TestDeepIslands:
    def test_hospital_chart_island(self, chart):
        analysis = analyze_island(chart)
        assert set(analysis.island_nodes) == {
            "PATIENT", "VISIT", "DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT",
        }
        assert set(with_role(analysis, NodeRole.OUTSIDE)) == {"PHYSICIAN", "MEDICATION"}
        assert with_role(analysis, NodeRole.PENINSULA) == []

    def test_cad_island_includes_subset(self, bom):
        analysis = analyze_island(bom)
        assert set(analysis.island_nodes) == {
            "ASSEMBLY", "COMPONENT", "RELEASED_ASSEMBLY",
        }

    def test_island_is_contiguous(self, chart):
        """A node is in the island only if its parent is."""
        analysis = analyze_island(chart)
        for node_id in analysis.island_nodes:
            node = chart.node(node_id)
            if node.parent_id is not None:
                assert analysis.is_island(node.parent_id)
