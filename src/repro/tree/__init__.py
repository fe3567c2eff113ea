"""Adaptive and uniform octree decompositions with tree-surgery operations.

The adaptive octree is the paper's central data structure: a variable-depth
spatial decomposition in which a node is subdivided when it holds more than
``S`` bodies.  The load balancer reshapes it at runtime through the
Collapse / PushDown operations (§IV) and the Enforce_S sweep (§VI-A).
"""

from repro.tree.octree import (
    AdaptiveOctree,
    NodeTable,
    OctreeNode,
    build_adaptive,
)
from repro.tree.uniform import build_uniform, uniform_depth_for
from repro.tree.lists import InteractionLists, PairTable, build_interaction_lists
from repro.tree.cache import ListCache

__all__ = [
    "AdaptiveOctree",
    "NodeTable",
    "OctreeNode",
    "build_adaptive",
    "build_uniform",
    "uniform_depth_for",
    "InteractionLists",
    "ListCache",
    "PairTable",
    "build_interaction_lists",
]
