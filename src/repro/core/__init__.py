"""The view-object model: the paper's primary contribution.

Definition pipeline (Figure 2): information metric → relevant subgraph →
maximal tree → pruned view object. Runtime (Figure 4): instantiation of
hierarchical instances. Updates (Section 5): dependency-island analysis
and the VO-CD / VO-CI / VO-R translation algorithms behind
:class:`~repro.core.updates.translator.Translator`.
"""

from repro.core.dependency_island import IslandAnalysis, NodeRole, analyze_island
from repro.core.diff import diff_instances, render_diff
from repro.core.information_metric import (
    InformationMetric,
    MetricWeights,
    RelevantSubgraph,
)
from repro.core.instance import ComponentTuple, Instance, build_instance
from repro.core.instantiation import Instantiator
from repro.core.projection import Projection
from repro.core.projection_tree import ProjectionTree, TreeNode
from repro.core.tree_builder import build_maximal_tree, prune_tree
from repro.core.view_object import ViewObjectDefinition, define_view_object

__all__ = [
    "Projection",
    "ProjectionTree",
    "TreeNode",
    "InformationMetric",
    "MetricWeights",
    "RelevantSubgraph",
    "build_maximal_tree",
    "prune_tree",
    "ViewObjectDefinition",
    "define_view_object",
    "IslandAnalysis",
    "NodeRole",
    "analyze_island",
    "Instance",
    "ComponentTuple",
    "build_instance",
    "Instantiator",
    "diff_instances",
    "render_diff",
]
