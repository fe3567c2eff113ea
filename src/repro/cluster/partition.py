"""Space-filling-curve partitioning of the adaptive tree across ranks.

Leaves are already in Morton order (the tree is built over Morton-sorted
bodies), so a contiguous run of leaves is a compact spatial region — the
same property the paper's multi-GPU partitioner exploits within a node
(§III-C), applied here across nodes.  Weights combine each leaf's direct
interactions with its share of expansion work, so ranks receive
approximately equal *time*, not equal body counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.flops import atomic_units
from repro.kernels.base import Kernel
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["RankPartition", "partition_by_morton_work"]


@dataclass
class RankPartition:
    """Assignment of leaves (and through them, bodies and nodes) to ranks."""

    tree: AdaptiveOctree
    lists: InteractionLists
    n_ranks: int
    #: leaf id -> rank
    leaf_rank: dict[int, int] = field(default_factory=dict)
    #: per-rank leaf lists, in Morton order
    rank_leaves: list[list[int]] = field(default_factory=list)
    #: per-rank work weights used for the split
    rank_work: list[float] = field(default_factory=list)

    def node_rank(self, nid: int) -> int:
        """Owner of an arbitrary effective node: the rank of its first leaf.

        This is the standard convention for SFC-partitioned octrees: the
        ancestors of a rank's first leaf are owned by that rank, so every
        node has exactly one owner and the upward sweep's cross-rank
        reductions happen along rank boundaries only.
        """
        node = self.tree.nodes[nid]
        if node.is_leaf:
            return self.leaf_rank[nid]
        cur = nid
        while not self.tree.nodes[cur].is_leaf:
            kids = self.tree.effective_children(cur)
            cur = min(kids, key=lambda c: self.tree.nodes[c].lo)
        return self.leaf_rank[cur]

    @property
    def imbalance(self) -> float:
        """max rank work / mean rank work (1.0 = perfect)."""
        nonzero = [w for w in self.rank_work if w > 0]
        if not nonzero:
            return 1.0
        mean = sum(self.rank_work) / len(self.rank_work)
        return max(self.rank_work) / mean if mean > 0 else 1.0


def leaf_work_weights(
    tree: AdaptiveOctree,
    lists: InteractionLists,
    *,
    order: int = 4,
    kernel: Kernel | None = None,
) -> dict[int, float]:
    """Per-leaf FLOP weight: direct interactions + expansion share."""
    units = atomic_units(order, kernel)
    weights: dict[int, float] = {}
    for t in lists.near_sources:
        node = tree.nodes[t]
        w = units["P2P"] * lists.interactions_of_leaf(t)
        w += (units["P2M"] + units["L2P"]) * node.count
        w += units["M2L"] * len(lists.v_list.get(t, ()))
        weights[t] = w
    return weights


def partition_by_morton_work(
    tree: AdaptiveOctree,
    lists: InteractionLists,
    n_ranks: int,
    *,
    order: int = 4,
    kernel: Kernel | None = None,
) -> RankPartition:
    """Split the Morton-ordered leaves into ``n_ranks`` contiguous runs of
    approximately equal work (the §III-C greedy walk, across nodes)."""
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    part = RankPartition(tree=tree, lists=lists, n_ranks=n_ranks)
    part.rank_leaves = [[] for _ in range(n_ranks)]
    part.rank_work = [0.0] * n_ranks
    weights = leaf_work_weights(tree, lists, order=order, kernel=kernel)
    leaves = sorted(weights, key=lambda nid: tree.nodes[nid].lo)
    total = sum(weights.values())
    if total == 0:
        for l in leaves:
            part.leaf_rank[l] = 0
            part.rank_leaves[0].append(l)
        return part
    share = total / n_ranks
    rank = 0
    acc = 0.0
    for l in leaves:
        part.leaf_rank[l] = rank
        part.rank_leaves[rank].append(l)
        part.rank_work[rank] += weights[l]
        acc += weights[l]
        if acc >= share * (rank + 1) and rank < n_ranks - 1:
            rank += 1
    return part
