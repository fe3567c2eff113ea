"""Adaptive (variable-depth) octree over Morton-sorted bodies.

Bodies are sorted once by 63-bit Morton key; every octree cell then owns a
*contiguous range* of the sorted order, so splitting a node, counting its
bodies, and refitting the tree after bodies move are all O(log n)
searchsorted operations — the vectorized analog of the paper's recursive
parallel partition (§III-B).  A node's children are allocated in one batch
(one ``searchsorted`` of the nine octant edges over the node's own key
slice); the build stays depth-first, because node ids order every
near-field source set and hence the P2P summation.

The tree is a list of :class:`OctreeNode` objects for surgery and for the
modelled machine, and — for everything that computes — a
:class:`NodeTable`: the effective tree as aligned arrays
(:meth:`AdaptiveOctree.node_table`), memoized under the tree's two stamps.

Tree surgery (§IV):

* :meth:`AdaptiveOctree.collapse` — hide a parent's children; "in actuality
  the children are just hidden from the FMM algorithm.  A flag is simply
  set" — exactly what we do: the subtree stays allocated for reclaim.
* :meth:`AdaptiveOctree.pushdown` — subdivide a leaf, reclaiming hidden
  children when present, otherwise allocating new ones (from the node
  buffer semantics of §IV-C).
* :meth:`AdaptiveOctree.enforce_s` — the Enforce_S sweep of §VI-A.

Every shape change bumps ``structure_generation`` — the one stamp the
list cache compares; a flag edit made outside these methods declares
itself with :meth:`AdaptiveOctree.mark_structure_dirty`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from repro.geometry.box import Box, bounding_box
from repro.geometry.morton import MAX_MORTON_LEVEL, decode_morton, morton_keys

__all__ = ["OctreeNode", "AdaptiveOctree", "NodeTable", "build_adaptive"]

#: the nine key-span edges of a node's octants, in units of the child span
_OCTANT_EDGES = np.arange(9, dtype=np.uint64)
#: side of child ``octant`` along axis k (bit k of the octant), as -1 / +1
_OCTANT_SIGNS = np.array(
    [[1.0 if octant >> k & 1 else -1.0 for k in range(3)] for octant in range(8)]
)


@dataclass
class OctreeNode:
    """One octree cell.

    ``lo:hi`` index into the tree's Morton-sorted body order;
    ``key_lo:key_hi`` is the cell's Morton key span at full depth.
    ``hidden`` marks cells collapsed away from the *effective* tree.
    """

    id: int
    level: int
    center: np.ndarray
    size: float
    parent: int
    key_lo: np.uint64
    key_hi: np.uint64
    lo: int = 0
    hi: int = 0
    children: list[int] | None = None
    is_leaf: bool = True
    hidden: bool = False

    @property
    def count(self) -> int:
        return self.hi - self.lo

    @property
    def box(self) -> Box:
        return Box(tuple(self.center), self.size)


@dataclass(frozen=True)
class NodeTable:
    """The effective tree as aligned arrays: one row per node, preorder.

    What every array consumer of the tree (list builder, far-field
    geometry, body and near-field plans, op counts) gathers from instead
    of walking ``tree.nodes``.  The structure columns are valid for one
    ``structure_generation``; ``lo`` / ``hi`` follow the bodies and are
    valid for one ``generation`` — a pure :meth:`AdaptiveOctree.refit`
    yields a table that shares the structure columns and replaces only
    those two.  Fetch it through :meth:`AdaptiveOctree.node_table`, never
    hold it across a mutation.
    """

    structure_generation: int
    generation: int
    ids: np.ndarray  # (n,) node id of each row
    row_of: np.ndarray  # (len(tree.nodes),) row of each node id, -1 = not effective
    level: np.ndarray  # (n,)
    parent_row: np.ndarray  # (n,) row of the parent, -1 for the root
    is_leaf: np.ndarray  # (n,) bool
    cell: np.ndarray  # (n, 3) low corner on the finest Morton grid (from key_lo)
    centers: np.ndarray  # (n, 3) the nodes' own (repeated-halving) centres
    lo: np.ndarray  # (n,) body range start in the Morton-sorted order
    hi: np.ndarray  # (n,) body range end

    @property
    def counts(self) -> np.ndarray:
        """Bodies per row."""
        return self.hi - self.lo


class AdaptiveOctree:
    """Variable-depth octree with leaf capacity ``S`` and tree surgery."""

    def __init__(
        self,
        points: np.ndarray,
        S: int,
        *,
        root_box: Box | None = None,
        max_level: int = MAX_MORTON_LEVEL - 1,
    ) -> None:
        self._init_state(points, S, root_box, max_level)
        self._build_root()
        self._split_recursive(0)

    @classmethod
    def from_nodes(
        cls, points, S: int, nodes: list[OctreeNode], *, root_box: Box, max_level: int
    ) -> "AdaptiveOctree":
        """A tree over an already-built node buffer (``lo`` / ``hi`` ranges
        included), hidden subtrees and all — what a checkpoint restores.

        Every field but ``nodes`` is set by the code :meth:`__init__` runs,
        so the restored tree takes surgery, refit and list caching like a
        built one; its stamps start over, as a fresh tree's do.
        """
        tree = cls.__new__(cls)
        tree._init_state(points, S, root_box, max_level)
        tree.nodes = nodes
        return tree

    def _init_state(self, points, S: int, root_box: Box | None, max_level: int) -> None:
        """Validate the arguments, set every field a tree has and sort the
        bodies; leaves ``nodes`` empty."""
        if S < 1:
            raise ValueError(f"leaf capacity S must be >= 1, got {S}")
        if not 1 <= max_level <= MAX_MORTON_LEVEL - 1:
            raise ValueError(f"max_level must be in 1..{MAX_MORTON_LEVEL - 1}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        self.points = pts
        self.S = int(S)
        self.max_level = int(max_level)
        #: bumped by *every* mutation (surgery, refit/re-sort, child
        #: materialization); stamps caches of body-dependent derived data
        #: (inverse body order, per-node populations, near-field indices).
        self.generation = 0
        #: bumped only when the *effective tree shape* changes (collapse,
        #: pushdown, materialized children) — a pure :meth:`refit` leaves it
        #: untouched, which is what lets interaction lists survive frozen-
        #: shape time steps.  Consumers must compare stored stamps, never
        #: absolute values.
        self.structure_generation = 0
        #: the memoized :meth:`node_table`
        self._node_table: NodeTable | None = None
        self.root_box = root_box if root_box is not None else bounding_box(pts)
        if not bool(self.root_box.contains(pts).all()):
            raise ValueError("root_box does not contain all points")
        self.nodes: list[OctreeNode] = []
        self._sort_bodies()

    # ---------------------------------------------------------- invalidation
    def _bump(self, *, structural: bool = False) -> None:
        self.generation += 1
        if structural:
            self.structure_generation += 1

    def mark_structure_dirty(self) -> None:
        """Declare an out-of-band structural edit.

        For callers that flip ``is_leaf``/``hidden`` flags directly (the
        fine-grained optimizer's snapshot rollback) instead of going through
        :meth:`collapse`/:meth:`pushdown`; bumps both generation counters so
        every cached derivation of the old shape is invalidated.
        """
        self._bump(structural=True)

    # ------------------------------------------------------------- building
    def _sort_bodies(self) -> None:
        keys = morton_keys(self.points, self.root_box.low, self.root_box.size)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]
        self._bump()

    def _build_root(self) -> None:
        self.nodes.clear()
        root = OctreeNode(
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
        self.nodes.append(root)

    def _make_children(self, nid: int) -> list[int]:
        """Allocate the (nonempty) children of node ``nid``, all at once.

        One ``searchsorted`` of the nine octant edges over the node's own
        slice of the sorted keys; ids, ranges, key spans and centres are
        bit for bit those of eight :meth:`_make_child` calls (the centre is
        ``Box.child``'s ``c +- size / 4``).
        """
        nodes = self.nodes
        node = nodes[nid]
        edges = node.key_lo + _OCTANT_EDGES * ((node.key_hi - node.key_lo) >> np.uint64(3))
        cuts = np.searchsorted(self.sorted_keys[node.lo : node.hi], edges, side="left")
        cuts = (cuts + node.lo).tolist()
        centers = node.center + _OCTANT_SIGNS * (node.size / 4.0)
        level, half = node.level + 1, node.size / 2.0
        child_ids: list[int] = []
        for octant in range(8):
            lo, hi = cuts[octant], cuts[octant + 1]
            if hi == lo:
                continue  # prune empty octants
            child_ids.append(len(nodes))
            nodes.append(
                OctreeNode(
                    id=len(nodes),
                    level=level,
                    center=centers[octant],
                    size=half,
                    parent=nid,
                    key_lo=edges[octant],
                    key_hi=edges[octant + 1],
                    lo=lo,
                    hi=hi,
                )
            )
        return child_ids

    def _make_child(self, nid: int, octant: int) -> int | None:
        """Allocate child ``octant`` of ``nid`` if it holds bodies."""
        node = self.nodes[nid]
        span = (node.key_hi - node.key_lo) >> np.uint64(3)
        klo = node.key_lo + np.uint64(octant) * span
        khi = klo + span
        lo = int(np.searchsorted(self.sorted_keys, klo, side="left"))
        hi = int(np.searchsorted(self.sorted_keys, khi, side="left"))
        if hi == lo:
            return None  # prune empty octants
        cbox = node.box.child(octant)
        child = OctreeNode(
            id=len(self.nodes),
            level=node.level + 1,
            center=cbox.center_array(),
            size=cbox.size,
            parent=nid,
            key_lo=klo,
            key_hi=khi,
            lo=lo,
            hi=hi,
        )
        self.nodes.append(child)
        return child.id

    def _materialize_missing_children(self, nid: int) -> list[int]:
        """Create leaves for octants that gained bodies since allocation.

        Empty octants are pruned at build time; after bodies move, a
        previously-empty octant of an internal node may become populated
        and needs a (leaf) child so the leaves keep partitioning the
        bodies.  Returns the newly created child ids.
        """
        node = self.nodes[nid]
        if node.children is None:
            return []
        span = (node.key_hi - node.key_lo) >> np.uint64(3)
        existing = {int((self.nodes[c].key_lo - node.key_lo) // span) for c in node.children}
        created: list[int] = []
        for octant in range(8):
            if octant in existing:
                continue
            cid = self._make_child(nid, octant)
            if cid is not None:
                node.children.append(cid)
                created.append(cid)
        if created:
            self._bump(structural=True)
        return created

    def _split_recursive(self, nid: int) -> None:
        stack = [nid]
        while stack:
            cur = stack.pop()
            node = self.nodes[cur]
            if node.count <= self.S or node.level >= self.max_level:
                continue
            if node.children is None:
                node.children = self._make_children(cur)
            node.is_leaf = False
            for cid in node.children:
                self.nodes[cid].hidden = False
                stack.append(cid)

    # ------------------------------------------------------------ accessors
    @property
    def n_bodies(self) -> int:
        return self.points.shape[0]

    def bodies(self, nid: int) -> np.ndarray:
        """Original indices of the bodies in node ``nid``."""
        node = self.nodes[nid]
        return self.order[node.lo : node.hi]

    def effective_children(self, nid: int) -> list[int]:
        """Visible (non-hidden) children of an effective internal node."""
        node = self.nodes[nid]
        if node.is_leaf or node.children is None:
            return []
        return [c for c in node.children if not self.nodes[c].hidden]

    def effective_nodes(self) -> list[int]:
        """Ids of all nodes in the effective tree, preorder from the root."""
        out: list[int] = []
        stack = [0]
        while stack:
            nid = stack.pop()
            out.append(nid)
            node = self.nodes[nid]
            if not node.is_leaf:
                stack.extend(reversed(self.effective_children(nid)))
        return out

    def node_table(self) -> NodeTable:
        """The effective tree as a :class:`NodeTable`, memoized.

        One :meth:`effective_nodes` walk per ``structure_generation``; a
        mutation that only moved bodies re-reads ``lo`` / ``hi`` alone.
        All work is sized by the effective tree, not by ``len(self.nodes)``
        (a balancer-collapsed tree is a few dozen rows inside thousands of
        hidden nodes), except the ``row_of`` fill.
        """
        tab = self._node_table
        if tab is not None and tab.structure_generation == self.structure_generation:
            if tab.generation != self.generation:
                picked = [self.nodes[i] for i in tab.ids.tolist()]
                tab = self._node_table = replace(
                    tab,
                    generation=self.generation,
                    lo=_column(picked, "lo", np.int64),
                    hi=_column(picked, "hi", np.int64),
                )
            return tab
        ids = self.effective_nodes()
        picked = [self.nodes[i] for i in ids]
        ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
        row_of = np.full(len(self.nodes), -1, dtype=np.int64)
        row_of[ids] = np.arange(ids.size)
        parent = _column(picked, "parent", np.int64)
        tab = self._node_table = NodeTable(
            structure_generation=self.structure_generation,
            generation=self.generation,
            ids=ids,
            row_of=row_of,
            level=_column(picked, "level", np.int64),
            # the root's -1 wraps to the last id; the mask discards it
            parent_row=np.where(parent >= 0, row_of[parent], -1),
            is_leaf=_column(picked, "is_leaf", bool),
            cell=np.stack(
                decode_morton(_column(picked, "key_lo", np.uint64)), axis=1
            ).astype(np.int64),
            centers=np.array([nd.center for nd in picked], dtype=float),
            lo=_column(picked, "lo", np.int64),
            hi=_column(picked, "hi", np.int64),
        )
        return tab

    def leaves(self) -> list[int]:
        """Ids of the effective leaves."""
        return [nid for nid in self.effective_nodes() if self.nodes[nid].is_leaf]

    def depth(self) -> int:
        """Maximum level over effective nodes."""
        return max(self.nodes[nid].level for nid in self.effective_nodes())

    def leaf_of_body(self, body: int) -> int:
        """Effective leaf currently holding body ``body`` (by sorted range)."""
        if getattr(self, "_inv_order_generation", None) != self.generation:
            inv = np.empty_like(self.order)
            inv[self.order] = np.arange(self.order.shape[0])
            self._inv_order = inv
            self._inv_order_generation = self.generation
        pos = int(self._inv_order[body])
        nid = 0
        while not self.nodes[nid].is_leaf:
            for cid in self.effective_children(nid):
                c = self.nodes[cid]
                if c.lo <= pos < c.hi:
                    nid = cid
                    break
            else:  # position falls in a pruned (empty) octant - cannot happen
                raise RuntimeError("body position not covered by any child")
        return nid

    # --------------------------------------------------------------- surgery
    def collapse(self, nid: int) -> None:
        """Hide the children of ``nid``; it becomes an effective leaf.

        Exception-safe: the descendant set is computed *before* any flag
        is touched, so a failure during traversal leaves the tree exactly
        as it was; the flag loop itself cannot raise.
        """
        node = self.nodes[nid]
        if node.is_leaf:
            raise ValueError(f"collapse: node {nid} is already a leaf")
        descendants = self._descendants(nid)
        for cid in descendants:
            self.nodes[cid].hidden = True
        node.is_leaf = True
        self._bump(structural=True)

    def pushdown(self, nid: int) -> list[int]:
        """Subdivide leaf ``nid``; returns the ids of its effective children.

        Hidden children are reclaimed (and become leaves themselves, their
        own subtrees staying hidden); otherwise children are allocated.

        Exception-safe (transactional): child allocation is the only phase
        that can fail mid-way (it appends to the node buffer and the
        parent's child list); on any exception the new nodes are truncated
        away, the child list is restored, the generation stamps are bumped
        conservatively (dropping any caches built concurrently), and the
        error re-raised — the tree is left exactly as before the call.
        The flag flips that follow cannot raise.
        """
        node = self.nodes[nid]
        if not node.is_leaf:
            raise ValueError(f"pushdown: node {nid} is not a leaf")
        if node.level >= self.max_level:
            raise ValueError(f"pushdown: node {nid} is at max level {self.max_level}")
        n_nodes_before = len(self.nodes)
        children_before = None if node.children is None else list(node.children)
        try:
            if node.children is None:
                node.children = self._make_children(nid)
            else:
                # reclaimed children may miss octants populated since collapse
                self._materialize_missing_children(nid)
        except BaseException:
            del self.nodes[n_nodes_before:]
            node.children = children_before
            self._bump(structural=True)
            raise
        kids = []
        for cid in node.children:
            child = self.nodes[cid]
            child.hidden = False
            child.is_leaf = True  # any grandchildren stay hidden until reclaimed
            kids.append(cid)
        node.is_leaf = False
        self._bump(structural=True)
        return kids

    def _descendants(self, nid: int) -> list[int]:
        out: list[int] = []
        stack = list(self.nodes[nid].children or [])
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.nodes[cur].children or [])
        return out

    def enforce_s(self, S: int | None = None) -> dict[str, int]:
        """The Enforce_S sweep of §VI-A.

        Collapses effective internal nodes holding fewer than S bodies and
        (recursively) pushes down effective leaves holding more than S.
        Returns operation counts for the balancer's bookkeeping.
        """
        S = self.S if S is None else int(S)
        self.S = S
        collapses = pushdowns = 0
        # collapse pass: deepest-first so nested underfull parents collapse too
        for nid in reversed(self.effective_nodes()):
            node = self.nodes[nid]
            if not node.is_leaf and node.count < S:
                self.collapse(nid)
                collapses += 1
        # pushdown pass: split any overfull leaf until the cap holds
        stack = [nid for nid in self.effective_nodes() if self.nodes[nid].is_leaf]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            if node.is_leaf and node.count > S and node.level < self.max_level:
                stack.extend(self.pushdown(nid))
                pushdowns += 1
        # the sweep itself counts as a mutation even when it was a no-op
        # (callers observing `generation` see that maintenance ran)
        self._bump()
        return {"collapses": collapses, "pushdowns": pushdowns}

    # ----------------------------------------------------------------- refit
    def refit(self) -> None:
        """Recompute body ranges after positions changed, keeping structure.

        Bodies are re-sorted by Morton key and every node's range is
        recomputed from its key span; the tree *shape* is untouched (this is
        what lets strategy 1 of §IX-A run with a frozen tree while bodies
        migrate between leaves).
        """
        if not bool(self.root_box.contains(self.points).all()):
            raise ValueError("points left the root box; rebuild the tree instead")
        self._sort_bodies()
        for node in self.nodes:
            node.lo = int(np.searchsorted(self.sorted_keys, node.key_lo, side="left"))
            node.hi = int(np.searchsorted(self.sorted_keys, node.key_hi, side="left"))
        # bodies may have drifted into octants that were empty (pruned) at
        # build time; give every effective internal node full coverage
        # (a shape change: the next list lookup rebuilds)
        for nid in self.effective_nodes():
            node = self.nodes[nid]
            if not node.is_leaf:
                covered = sum(self.nodes[c].count for c in node.children or [])
                if covered != node.count:
                    self._materialize_missing_children(nid)

    # ------------------------------------------------------------ statistics
    def leaf_counts(self) -> np.ndarray:
        return np.array([self.nodes[nid].count for nid in self.leaves()], dtype=np.int64)

    def stats(self) -> dict:
        leaves = self.leaves()
        counts = np.array([self.nodes[x].count for x in leaves]) if leaves else np.zeros(0)
        return {
            "n_bodies": self.n_bodies,
            "n_nodes": len(self.effective_nodes()),
            "n_leaves": len(leaves),
            "depth": self.depth(),
            "S": self.S,
            "leaf_count_max": int(counts.max(initial=0)),
            "leaf_count_mean": float(counts.mean()) if counts.size else 0.0,
        }


def _column(picked: list[OctreeNode], name: str, dtype) -> np.ndarray:
    """Attribute ``name`` of every node in ``picked``, as one array."""
    return np.fromiter(map(attrgetter(name), picked), dtype=dtype, count=len(picked))


def build_adaptive(
    points: np.ndarray,
    S: int,
    *,
    root_box: Box | None = None,
    max_level: int = MAX_MORTON_LEVEL - 1,
) -> AdaptiveOctree:
    """Convenience constructor mirroring :class:`AdaptiveOctree`."""
    return AdaptiveOctree(points, S, root_box=root_box, max_level=max_level)
