"""The depth-first tree build — the reference the level-by-level build of
:class:`~repro.tree.octree.AdaptiveOctree` is tested against (and the
baseline ``benchmarks/test_bench_hotpaths.py`` times it against).

A root node, then a stack: pop a node, split it if the tree's split rule
says so (one :meth:`~repro.tree.octree.AdaptiveOctree._make_children` call,
the surgery path), push its children in octant order.  Node ids are the
allocation order of this walk.  Nothing under ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.tree.octree import AdaptiveOctree, OctreeNode
from repro.tree.uniform import UniformOctree

__all__ = ["RecursiveBuild", "RecursiveOctree", "RecursiveUniformOctree"]


class RecursiveBuild:
    """Mixin: replaces the level-by-level build with the per-node stack.

    The node table is left to :meth:`AdaptiveOctree.node_table`'s walk of
    ``effective_nodes()``, as it was before the build emitted it.
    """

    def _build_levels(self) -> None:
        self.nodes.clear()
        self.nodes.append(
            OctreeNode(
                id=0,
                level=0,
                center=self.root_box.center_array(),
                size=self.root_box.size,
                parent=-1,
                key_lo=np.uint64(0),
                key_hi=np.uint64(1) << np.uint64(3 * MAX_MORTON_LEVEL),
                lo=0,
                hi=self.points.shape[0],
            )
        )
        stack = [0]
        while stack:
            cur = stack.pop()
            node = self.nodes[cur]
            if not self._split_mask(node.level, np.array([node.count]))[0]:
                continue
            if node.children is None:
                node.children = self._make_children(cur)
            node.is_leaf = False
            for cid in node.children:
                self.nodes[cid].hidden = False
                stack.append(cid)


class RecursiveOctree(RecursiveBuild, AdaptiveOctree):
    """An :class:`AdaptiveOctree` built depth first."""


class RecursiveUniformOctree(RecursiveBuild, UniformOctree):
    """A :class:`~repro.tree.uniform.UniformOctree` built depth first."""
