"""Vectorized Laplace far-field engine (geometry-class batched sweeps).

A per-node sweep applies one translation operator per node or pair (the
test-side oracle, ``tests/oracles/farfield.py``, still does).  This module
exploits the observation (Agullo et al.; Goude & Engblom) that octree
geometry is *quantized*: per level there are at most 8 distinct
parent<->child offsets and a bounded family of well-separated M2L
displacements, so translation operators fall into a small number of
**geometry classes** whose operator can be built once and applied to
every member pair with a single matmul over a dense ``(n_nodes, width)``
coefficient array.

M2L — the term that dominates the sweep — runs in the **translation
space**, over **sibling octets**.  A harmonic field has only (p+1)²
independent Taylor coefficients, so M2L acts on ``w = (p+1)²``-wide rows
(``multipoles @ R`` going in, ``@ R.T`` coming out; ``R`` is the
expansion's ``m2l_reduction``, ``None`` for an expansion that is already
(p+1)² wide).  And the V list is implied by the colleague pairs of split
nodes — V(child i of P) is every child j of a colleague Q of P that is not
adjacent to i — so the unit of M2L work is the *colleague pair*, not the V
pair: the pass keeps octet arrays of ``8 w``-wide rows (a split
node's eight child slots side by side; a missing child is a zero slot on
the way in and a discarded one on the way out), a pair ``(Q, P)`` is one
row-applied ``(8w, 8w)`` block whose sub-block (j, i) is the M2L core of
the child-cell displacement ``2D + o_i - o_j`` (zero where the two
children are adjacent), and the block depends only on the cell offset
``D = cell_P - cell_Q`` — one of 26 — because the cores are built at the
root's cell size and the exact power-of-two level factors go onto the
octet arrays instead (*reduce* scales degree ``n`` of a level-``l`` node by
``2^(l n)``, *expand* by ``2^(l (n + 1))``; DESIGN.md §9).  And 13 blocks
serve the 26 directions: ``core(-d)[a, b] = (-1)^(n_a + n_b) core(d)[a,
b]``, so the block of ``-D`` is the block of ``D`` between *mirrored*
octets (child ``j`` in slot ``7 - j``, odd degrees negated), which the
octet arrays carry ``n_split`` rows below the natural ones.  A solve
applies **at most 13 M2L classes**, each one gemm.  M2M and L2L keep the
full width and one class per ``(level, octant)``, but their operators are
level-free too: a level's is the root's child-shift operator times exact
powers of two.  So every operator of a sweep comes from one immutable
:class:`~repro.expansions.operators.OperatorSet` per ``(backend, order,
h_root)`` — 8 + 8 shifts, 13 blocks — read from the
:class:`~repro.expansions.operators.OperatorStore` that the
:class:`~repro.tree.cache.ListCache` stamped on the lists: a rebuilt tree,
or another tree over the same root box, assembles none.

The engine splits per-solve state into three cached layers, all memoized
on the :class:`~repro.tree.lists.InteractionLists` via ``derived_cache``:

* :class:`FarFieldGeometry` (``structure_generation`` stamp) — node-row
  and octet layout, shift/direction classes with their operators, W/X
  pair rows.  Depends only on the tree *shape*: free across frozen-shape
  time steps and refits.  Built from arrays only: row state is the tree's
  :class:`~repro.tree.octree.NodeTable`, M2L pairs come from the lists'
  colleague :class:`~repro.tree.lists.PairTable` (the V table is read for
  its size alone — the cost-model count), W / X pairs from theirs;
  classes are grouped by a radix sort of their keys' dense ranks
  (:func:`_group_by_key`) and a class's rows are slices of one gather.
* :class:`LeafBodyPlan` (``generation`` stamp) — CSR body rows per
  effective leaf with body-relative coordinates.  Rebuilt on refit.
* per-backend leaf basis tables (``generation`` stamp) — the P2M/L2P row
  bases over the body plan, shared by every far-field pass of a solve
  (the composite Stokeslet solver runs seven); one ``powers`` call per
  plan, the Cartesian P2M basis being the L2P one with signs flipped.

The sweep itself is decomposed into **stage-level closures** on
:class:`FarFieldPass` so the real execution engine
(:mod:`repro.runtime.engine`) can run independent stages concurrently:
M2L direction-class matmuls are mutually independent, M2M/L2L are
level-ordered, and the class *merges* into shared coefficient arrays are
kept as separate steps applied in a fixed class order — which is what
makes a parallel run bitwise identical to a serial one.  The arithmetic
of the per-body stages (P2M, L2P, P2L, M2P) and of the two whole-array
stages (reduce, expand) lives in module-level **stage functions** over
plain arrays; the pass methods and the shard workers of
:mod:`repro.runtime.shards` (over arena views) both call them.

:func:`laplace_far_field` is the serial driver over those stages; it
accepts a ``tracer`` and emits one span per FMM operation whose
``applications`` argument follows the cost-model unit conventions of
:meth:`InteractionLists.op_counts`, keeping ``C_op = time/applications``
calibration meaningful on the batched path (reduce and expand sit inside
the ``M2L`` span: they are M2L's cost; its ``applications`` stay V pairs,
the cost-model unit, however few octet pairs carry them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.expansions.operators import OperatorStore
from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from repro.util.arrays import csr_ptr, stable_argsort

__all__ = [
    "FarFieldGeometry",
    "FarFieldPass",
    "LeafBodyPlan",
    "PassSpec",
    "far_field_geometry",
    "l2p",
    "l2p_leaf_gradient",
    "laplace_far_field",
    "leaf_basis",
    "leaf_body_plan",
    "level_groups",
    "m2l_expand",
    "m2l_reduce",
    "m2p",
    "m2p_scatter",
    "p2l",
    "p2m",
    "pair_bodies",
]


# --------------------------------------------------------------------------
# small CSR helpers
# --------------------------------------------------------------------------


def _segment_sum(rows: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Sum ``rows`` over the CSR segments of ``ptr`` -> (n_segments, ...).

    ``np.add.reduceat`` mishandles empty segments (it returns the element
    at the start index instead of zero), so reduce only at the starts of
    nonempty segments and scatter the partial sums back.
    """
    n_seg = ptr.size - 1
    out = np.zeros((n_seg,) + rows.shape[1:], dtype=rows.dtype)
    counts = np.diff(ptr)
    nonempty = np.nonzero(counts > 0)[0]
    if nonempty.size:
        out[nonempty] = np.add.reduceat(rows, ptr[nonempty], axis=0)
    return out


def _expand_segments(ptr: np.ndarray, take: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the CSR rows of each segment in ``take``, concatenated.

    Returns ``(positions, counts)`` where ``positions`` indexes the flat
    row arrays that ``ptr`` partitions.
    """
    counts = ptr[take + 1] - ptr[take]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = np.repeat(ptr[take], counts)
    offset = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return starts + offset, counts


def _group_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of small non-negative integer ``keys``.

    Returns ``(order, ptr)``: group ``g`` — groups in ascending key order,
    members in input order — is ``order[ptr[g]:ptr[g + 1]]``.  No
    comparison sort where it can be avoided: a presence table over ``[0,
    keys.max()]`` turns each key into its dense rank, and as long as the
    ranks fit 16 bits (a tree has a few hundred geometry classes)
    :func:`~repro.util.arrays.stable_argsort` radix-sorts them.
    """
    present = np.zeros(int(keys.max()) + 1, dtype=bool)
    present[keys] = True
    rank_of = np.cumsum(present) - 1
    ranks = rank_of[keys]
    n_groups = int(rank_of[-1]) + 1
    return stable_argsort(ranks, n_groups), csr_ptr(np.bincount(ranks, minlength=n_groups))


def _cache_stats(lists: InteractionLists, attr: str, *extra: str) -> dict[str, int]:
    stats = getattr(lists, attr, None)
    if stats is None:
        stats = {"builds": 0, "hits": 0}
        setattr(lists, attr, stats)
    for k in extra:
        stats.setdefault(k, 0)
    return stats


def level_groups(levels: list[int]) -> list[list[int]]:
    """Group consecutive equal entries of ``levels`` into index runs."""
    groups: list[list[int]] = []
    for i, lvl in enumerate(levels):
        if groups and levels[i - 1] == lvl:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


# --------------------------------------------------------------------------
# cached geometry layer (structure_generation stamp)
# --------------------------------------------------------------------------


@dataclass
class FarFieldGeometry:
    """Shape-only batched-sweep artifacts for one (backend, order).

    Rows index the effective-node preorder; every *class* holds aligned
    source/target row arrays plus the dense row-applied operator shared by
    all its pairs (``out_rows += in_rows @ op``).  Within one class each
    target row appears at most once, so plain fancy ``+=`` is scatter-safe.
    The rows of an M2L class are not node rows but **octets** — a split
    node's eight child slots side by side, once as they are and once
    mirrored — and the pairs are colleague pairs of split nodes (module
    docstring).
    """

    eff_rows: np.ndarray  # (n_eff,) node ids, preorder
    centers: np.ndarray  # (n_eff, 3)
    leaf_rows: np.ndarray  # rows of effective leaves, preorder
    leaf_pos: np.ndarray  # (n_eff,) ordinal among leaves, -1 for internal
    up_classes: list  # [(child_rows, parent_rows, op)], deepest level first
    down_classes: list  # [(parent_rows, child_rows, op)], shallowest first
    m2l_classes: list  # [(src_octets, tgt_octets, block)], one per direction +-D
    n_shifts: int  # total parent<->child shifts (M2M = L2L count)
    n_m2l: int  # total V-list pairs
    octet_rows: np.ndarray  # (2 n_split,) split-node row per octet: natural, then mirrored
    child_rows: np.ndarray  # (n_shifts,) node row of every non-root node ...
    child_slots: np.ndarray  # (2, n_shifts) ... its natural / mirrored slot, ``8 * octet + octant``
    child_levels: np.ndarray  # ... and its level
    w_tgt_rows: np.ndarray  # W pairs: target-leaf row per pair
    w_src_rows: np.ndarray  # W pairs: source-node row per pair
    x_recv_rows: np.ndarray  # X pairs: receiving-node row per pair
    x_src_rows: np.ndarray  # X pairs: source-leaf row per pair
    up_class_levels: list  # tree level of each up class (aligned)
    down_class_levels: list  # tree level of each down class (aligned)


def far_field_geometry(
    tree: AdaptiveOctree, lists: InteractionLists, expansion
) -> FarFieldGeometry:
    """Build (or fetch) the geometry layer for ``expansion``'s class ops.

    Memoized per (backend, order) with the ``structure_generation`` stamp;
    build/hit counters accumulate in ``lists.farfield_geometry_stats``.
    """
    key = f"farfield_geometry:{expansion.backend}:{expansion.order}"
    cached, store = lists.derived_cache(key, structural=True)
    stats = _cache_stats(lists, "farfield_geometry_stats", "op_hits", "op_builds")
    if cached is not None:
        stats["hits"] += 1
        return cached
    stats["builds"] += 1
    # the one set of operators this (backend, order, root box) ever needs,
    # from the store of the ListCache that built the lists (bare lists get
    # a store of their own)
    operators = getattr(lists, "operator_store", None)
    if operators is None:
        operators = lists.operator_store = OperatorStore()
    ops, assembled = operators.get(expansion, tree.root_box.size)

    # row state is a gather from the tree's node table (per-id attributes
    # are immutable and the table is memoized per structure_generation)
    tab = tree.node_table()
    row_of, centers, levels, parent_row = tab.row_of, tab.centers, tab.level, tab.parent_row
    n_eff = tab.ids.size
    leaf_rows = np.nonzero(tab.is_leaf)[0]
    leaf_pos = np.full(n_eff, -1, dtype=np.int64)
    leaf_pos[leaf_rows] = np.arange(leaf_rows.size)
    # integer cell coordinates in units of the node's own cell size
    cell = tab.cell >> (MAX_MORTON_LEVEL - levels)[:, None]

    # ---- parent<->child shift classes: (level, octant) -> <= 8 per level
    child_rows = np.nonzero(parent_row >= 0)[0]
    octant = (cell[child_rows] & 1) @ np.array([1, 2, 4])
    up_classes: list = []
    down_classes: list = []
    up_class_levels: list = []
    down_class_levels: list = []
    if child_rows.size:
        order, ptr = _group_by_key(levels[child_rows] * 8 + octant)
        segs = []
        for lo, hi in zip(ptr[:-1], ptr[1:]):
            c = child_rows[order[lo:hi]]
            segs.append((int(levels[c[0]]), int(octant[order[lo]]), c, parent_row[c]))
        # a level's operator is the set's level-1 one times exact powers of
        # two — what the back end builds at the shift +-h_root / 2^(level+1)
        for lvl, okt, c, p in sorted(segs, key=lambda s: -s[0]):
            up_classes.append((c, p, ops.m2m_at(lvl, okt)))
            up_class_levels.append(lvl)
        for lvl, okt, c, p in sorted(segs, key=lambda s: s[0]):
            down_classes.append((p, c, ops.l2l_at(lvl, okt)))
            down_class_levels.append(lvl)

    # ---- M2L direction classes over sibling octets.  The V list is implied
    # by the colleague pairs of split nodes (child i of P x child j of Q,
    # not adjacent), so the pairs read here are the colleague table's, a few
    # percent of the V rows; the class of a pair is the cell offset D of its
    # two split nodes, one of 26 whatever their level — of 13, because a
    # pair at -D is the pair at D between the two nodes' *mirrored* octets
    # (child j -> 7 - j, odd degrees negated), which sit n_split rows down.
    split_rows = np.nonzero(~tab.is_leaf)[0]
    n_split = split_rows.size
    octet_of = np.where(tab.is_leaf, -1, np.cumsum(~tab.is_leaf) - 1)
    coll = lists.table("colleagues")
    tgt = octet_of[np.repeat(row_of[coll.keys], coll.counts)]
    src = octet_of[row_of[coll.values]]
    pairs = np.nonzero((tgt >= 0) & (src >= 0) & (tgt != src))[0]
    m2l_classes: list = []
    if pairs.size:
        tgt, src = tgt[pairs], src[pairs]
        offset = cell[split_rows[tgt]] - cell[split_rows[src]]
        key = (offset + 1) @ np.array([9, 3, 1])  # 0..26, -D at 26 - key
        mirrored = key < 13
        key = np.where(mirrored, 26 - key, key)  # 14..26: the set's 13 blocks
        order, ptr = _group_by_key(key)
        tgt, src = (tgt + n_split * mirrored)[order], (src + n_split * mirrored)[order]
        m2l_classes = [
            (src[lo:hi], tgt[lo:hi], ops.m2l[key[order[lo]] - 14])
            for lo, hi in zip(ptr[:-1], ptr[1:])
        ]

    if assembled:
        stats["op_builds"] += len(ops)
    else:
        stats["op_hits"] += len(up_classes) + len(down_classes) + len(m2l_classes)

    w, x = lists.table("w_list"), lists.table("x_list")
    slot = octet_of[parent_row[child_rows]] * 8 + octant  # of each node, natural

    return store(
        FarFieldGeometry(
            eff_rows=tab.ids,
            centers=centers,
            leaf_rows=leaf_rows,
            leaf_pos=leaf_pos,
            up_classes=up_classes,
            down_classes=down_classes,
            m2l_classes=m2l_classes,
            n_shifts=int(child_rows.size),
            # the cost-model unit stays the V pair
            n_m2l=int(lists.table("v_list").values.size),
            octet_rows=np.tile(split_rows, 2),
            child_rows=child_rows,
            child_slots=np.stack((slot, slot + 8 * n_split + 7 - 2 * octant)),
            child_levels=levels[child_rows],
            w_tgt_rows=np.repeat(row_of[w.keys], w.counts),
            w_src_rows=row_of[w.values],
            x_recv_rows=np.repeat(row_of[x.keys], x.counts),
            x_src_rows=row_of[x.values],
            up_class_levels=up_class_levels,
            down_class_levels=down_class_levels,
        )
    )


# --------------------------------------------------------------------------
# cached body layer (generation stamp)
# --------------------------------------------------------------------------


@dataclass
class LeafBodyPlan:
    """CSR bodies of effective leaves, in ``FarFieldGeometry.leaf_rows``
    order — of every leaf, or of the :meth:`subset` named by ``leaves``."""

    body_idx: np.ndarray  # (m,) body ids, leaf-major
    ptr: np.ndarray  # (n_plan_leaves + 1,) CSR pointer
    gid: np.ndarray  # (m,) leaf ordinal (among all leaves) per row
    rel: np.ndarray  # (m, 3) body position minus leaf center
    leaves: np.ndarray | None = None  # leaf ordinals covered; None = all

    def subset(self, leaves: np.ndarray) -> "LeafBodyPlan":
        """The plan restricted to the leaf ordinals ``leaves`` (copies)."""
        rowpos, cnt = _expand_segments(self.ptr, leaves)
        return LeafBodyPlan(
            body_idx=self.body_idx[rowpos],
            ptr=np.concatenate(([0], np.cumsum(cnt))).astype(np.int64),
            gid=self.gid[rowpos],
            rel=self.rel[rowpos],
            leaves=leaves,
        )

    def leaf_rows(self, geom: FarFieldGeometry) -> np.ndarray:
        """Effective-node rows of this plan's leaves."""
        return geom.leaf_rows if self.leaves is None else geom.leaf_rows[self.leaves]


def leaf_body_plan(tree: AdaptiveOctree, lists: InteractionLists) -> LeafBodyPlan:
    cached, store = lists.derived_cache("farfield_body_plan")
    if cached is not None:
        return cached
    tab = tree.node_table()
    leaf_rows = np.nonzero(tab.is_leaf)[0]
    n = leaf_rows.size
    lo, hi = tab.lo[leaf_rows], tab.hi[leaf_rows]
    cnt = hi - lo
    ptr = np.concatenate(([0], np.cumsum(cnt)))
    # positions into tree.order: each leaf's [lo, hi) range, concatenated
    total = int(cnt.sum())
    starts = np.repeat(lo, cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(ptr[:-1], cnt)
    body_idx = tree.order[starts + within]
    gid = np.repeat(np.arange(n, dtype=np.int64), cnt)
    rel = tree.points[body_idx] - tab.centers[leaf_rows[gid]]
    return store(LeafBodyPlan(body_idx=body_idx, ptr=ptr, gid=gid, rel=rel))


def leaf_basis(expansion, plan: LeafBodyPlan, kind: str, derived_cache):
    """P2M/L2P row basis over ``plan``, memoized per backend+order.

    ``derived_cache(key) -> (cached, store)`` is the memo: the lists'
    generation-stamped :meth:`InteractionLists.derived_cache` in process,
    a per-session dict in a shard worker.  The spherical backend uses the
    *same* conj-regular table on both ends, so it caches one entry under
    ``regular``.
    """
    if expansion.backend == "spherical":
        kind = "regular"
    key = f"farfield_basis:{expansion.backend}:{expansion.order}:{kind}"
    cached, store = derived_cache(key)
    if cached is not None:
        return cached
    if kind == "p2m":
        # one ``powers`` call per plan: the P2M basis is the L2P one with
        # its odd-degree columns negated
        return store(
            expansion.p2m_basis_from_l2p(leaf_basis(expansion, plan, "l2p", derived_cache))
        )
    return store(expansion.l2p_basis(plan.rel))


# --------------------------------------------------------------------------
# the stage library: each stage's arithmetic, once, over plain arrays
# --------------------------------------------------------------------------
#
# Every back end runs these same functions — the in-process pass below
# over its own arrays, a shard worker over shared-memory arena views.
# What may be *subset* and what must run *whole* is part of each
# function's contract (float matmuls and ``np.add.at`` scatters are only
# reproducible on the whole operand; see DESIGN.md §9):
#
# * ``p2m`` / ``l2p`` use row-independent primitives only (elementwise,
#   row dots through ``_row_dots``, per-leaf segment sums), so evaluating
#   them on ``plan.subset(leaves)`` — with the :func:`leaf_basis` computed
#   over that subset — yields bitwise the same rows as the full plan;
# * ``l2p_leaf_gradient``, ``m2l_reduce`` and ``m2l_expand`` are matmuls
#   and ``p2l`` / ``m2p`` feed ordered scatters: they take the full plan
#   (the full coefficient array) and run whole, on one worker.


@dataclass(frozen=True)
class PassSpec:
    """One far-field pass: monopole or dipole strengths, output flags."""

    kind: str  # "charges" | "dipoles" (the FarFieldPass keyword)
    potential: bool = True
    gradient: bool = False


def p2m(geom, plan, exp, multipoles, *, charges=None, dipoles=None, basis=None):
    """Per-body rows, segment-summed per leaf (writes ``plan``'s leaf rows).

    ``basis`` is the ``"p2m"`` :func:`leaf_basis` over ``plan`` (needed
    with ``charges`` only).
    """
    if not plan.body_idx.size:
        return
    rows = None
    if charges is not None:
        rows = charges[plan.body_idx, None] * basis
    if dipoles is not None:
        drows = exp.p2m_dipole_rows(plan.rel, dipoles[plan.body_idx], plan.ptr)
        rows = drows if rows is None else rows + drows
    multipoles[plan.leaf_rows(geom)] = _segment_sum(rows, plan.ptr)


def _level_scale(geom, exponents) -> np.ndarray:
    """``2^(level * exponents)`` per non-root node: the level-free M2L
    factors, exact powers of two (``exponents`` is per coefficient)."""
    levels = geom.child_levels
    table = np.ldexp(1.0, np.arange(levels.max(initial=0) + 1)[:, None] * exponents)
    return table[levels]


def m2l_reduce(exp, geom, multipoles, octets):
    """Finished multipoles into the octet array M2L reads.

    Three steps, run whole: into the translation space (``multipoles @
    R``, a matmul, with ``R`` the expansion's ``m2l_reduction`` — ``None``
    means the coefficients are the translation space already), onto the
    root's cell size (degree ``n`` of a level-``l`` node times ``2^(l n)``),
    and each node into its two slots of its parent's octet rows — the
    natural one, and the mirrored one with the odd degrees negated.  A
    missing child's slots are never written: they stay zero.
    """
    R = exp.m2l_reduction
    deg = exp.m2l_degrees
    natural, mirrored = geom.child_slots
    slots = octets.reshape(-1, deg.size)
    rows = (multipoles if R is None else multipoles @ R)[geom.child_rows]
    rows *= _level_scale(geom, deg)
    slots[natural] = rows
    slots[mirrored] = np.multiply(rows, (-1.0) ** deg, out=rows)


def m2l_expand(exp, geom, octets, locals_):
    """The merged M2L result back to node rows at full width — the inverse
    of :func:`m2l_reduce`: a node's two slots summed (the mirrored one with
    its odd degrees negated back) into its row, back to the node's own cell
    size (``2^(l (n + 1))``), then ``@ R.T``, run whole.  It *assigns*
    ``locals_`` (the root, and a slot without a node, get nothing), so it
    lands after the last M2L merge and before anything else (P2L) adds to
    them."""
    R = exp.m2l_reduction
    deg = exp.m2l_degrees
    natural, mirrored = geom.child_slots
    slots = octets.reshape(-1, deg.size)
    rows = slots[mirrored] * (-1.0) ** deg
    rows += slots[natural]
    rows *= _level_scale(geom, deg + 1)
    if R is None:
        locals_[geom.child_rows] = rows
        return
    reduced = np.zeros((locals_.shape[0], deg.size))
    reduced[geom.child_rows] = rows
    np.matmul(reduced, R.T, out=locals_)


def l2p_leaf_gradient(geom, locals_, A):
    """Per-leaf derivative coefficients of one axis: a matmul, run whole."""
    return locals_[geom.leaf_rows] @ A


def _row_dots(basis, rows):
    """``sum_j basis[i, j] * rows[i, j]`` per row, each row's value
    independent of which other rows are evaluated with it.

    ``einsum`` picks its reduction kernel from the operands' layout.  The
    leaf bases come out column-major, which gets the column-by-column
    accumulation for any number of rows except one: a lone row is 1-D to
    the iterator and gets the SIMD dot kernel, last-ulp different.  So a
    lone row is evaluated as a pair.
    """
    if basis.shape[0] != 1:
        return np.einsum("ij,ij->i", basis, rows)
    pair = np.asfortranarray(np.repeat(basis, 2, axis=0))
    return np.einsum("ij,ij->i", pair, np.repeat(rows, 2, axis=0))[:1]


def l2p(geom, plan, basis, locals_, pot, grad, leaf_grad=()):
    """Batched leaf evaluation (assigns ``plan``'s disjoint body rows).

    ``basis`` is the ``"l2p"`` :func:`leaf_basis` over ``plan``;
    ``leaf_grad`` yields one :func:`l2p_leaf_gradient` per axis (consumed
    only when ``grad`` is wanted).  ``pot`` / ``grad`` of ``None`` are
    skipped.  ``.real`` is a no-op view on the real Cartesian backend.
    """
    if not plan.body_idx.size:
        return
    if pot is not None:
        pot[plan.body_idx] = _row_dots(basis, locals_[geom.leaf_rows[plan.gid]]).real
    if grad is not None:
        for k, gk in enumerate(leaf_grad):
            grad[plan.body_idx, k] = _row_dots(basis, gk[plan.gid]).real


def pair_bodies(geom, plan, pair_leaf_rows):
    """``(rowpos, cnt)``: the plan rows of every body of each X/W pair's
    leaf (``pair_leaf_rows`` = the leaf's effective row per pair)."""
    return _expand_segments(plan.ptr, geom.leaf_pos[pair_leaf_rows])


def p2l(geom, plan, exp, pts, pairs, *, charges=None, dipoles=None):
    """X phase (un-folded): one local contribution per X pair, or ``None``.

    ``pairs = pair_bodies(geom, plan, geom.x_src_rows)`` over the full
    plan; the caller folds the result in with
    ``np.add.at(locals_, geom.x_recv_rows, contribution)``.
    """
    rowpos, cnt = pairs
    if not rowpos.size:
        return None
    pair_of = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    b_idx = plan.body_idx[rowpos]
    relx = pts[b_idx] - geom.centers[geom.x_recv_rows[pair_of]]
    pair_ptr = np.concatenate(([0], np.cumsum(cnt)))
    rows = None
    if charges is not None:
        rows = charges[b_idx, None] * exp.p2l_basis(relx)
    if dipoles is not None:
        drows = exp.p2l_dipole_rows(relx, dipoles[b_idx], pair_ptr)
        rows = drows if rows is None else rows + drows
    return _segment_sum(rows, pair_ptr)


def m2p(geom, plan, exp, pts, multipoles, pairs, *, potential, grad_mats=()):
    """W phase: source multipoles evaluated at target-leaf bodies.

    ``pairs = pair_bodies(geom, plan, geom.w_tgt_rows)`` over the full
    plan; ``grad_mats`` are the expansion's ``m2p_gradient_matrices()``
    when the gradient is wanted.  Returns ``(pot_vals, grad_vals)`` for
    :func:`m2p_scatter` (``None`` where not requested).
    """
    rowpos, cnt = pairs
    if not rowpos.size:
        return None, None
    pair_of = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    relw = pts[plan.body_idx[rowpos]] - geom.centers[geom.w_src_rows[pair_of]]
    mom = multipoles[geom.w_src_rows]
    pot_vals = grad_vals = None
    if potential:
        pot_vals = np.einsum("ij,ij->i", exp.m2p_basis(relw), mom[pair_of]).real
    if grad_mats:
        Bbig = exp.m2p_grad_basis(relw)
        grad_vals = [
            np.einsum("ij,ij->i", Bbig, (mom @ A)[pair_of]).real for A in grad_mats
        ]
    return pot_vals, grad_vals


def m2p_scatter(plan, pairs, pot, grad, pot_vals, grad_vals) -> None:
    """Add the W-phase values into bodies (after :func:`l2p` assigned them)."""
    b_idx = plan.body_idx[pairs[0]]
    if pot_vals is not None:
        np.add.at(pot, b_idx, pot_vals)
    if grad_vals is not None:
        for k, vals in enumerate(grad_vals):
            np.add.at(grad[:, k], b_idx, vals)


# --------------------------------------------------------------------------
# the batched sweep, decomposed into schedulable stages
# --------------------------------------------------------------------------


class FarFieldPass:
    """One batched far-field pass split into dependency-ordered stages.

    Construction (always on the calling thread) resolves every shared
    cache — geometry classes, the leaf body plan, P2M/L2P bases, gradient
    matrices — so the stage methods are pure compute and safe to run on
    pool threads.  The stage contract that keeps any execution order
    allowed by the dependencies **bitwise identical** to the serial order:

    * ``p2m`` / ``l2p`` / ``l2l_apply`` write disjoint rows and may run
      concurrently with anything that does not read those rows;
    * ``m2m_delta`` / ``m2l_delta`` / ``p2l_compute`` / ``m2p_compute``
      only *read* shared arrays, parking their contribution privately;
    * the matching ``*_merge`` stages fold contributions into the shared
      arrays and must be called in **class order** (the serial loop
      order), which the task graph enforces with a merge chain;
    * M2L reads and writes the ``(2 n_split, 8 (p+1)^2)`` **octet arrays**
      ``m2l_multipoles`` / ``m2l_locals``: ``m2l_reduce`` fills the first
      after the last M2M merge, ``m2l_expand`` assigns ``locals_`` from the
      second after the last M2L merge and before ``p2l_merge`` — each
      whole, on one worker.

    :func:`laplace_far_field` is the serial driver over these stages;
    :func:`repro.runtime.graphs.add_far_field_tasks` is the parallel one.
    """

    def __init__(
        self,
        tree: AdaptiveOctree,
        lists: InteractionLists,
        expansion,
        *,
        charges: np.ndarray | None = None,
        dipoles: np.ndarray | None = None,
        gradient: bool = False,
        potential: bool = True,
    ) -> None:
        if charges is None and dipoles is None:
            raise ValueError("provide charges and/or dipoles")
        exp = expansion
        self.exp = exp
        self.geom = far_field_geometry(tree, lists, exp)
        self.plan = leaf_body_plan(tree, lists)
        self.pts = tree.points
        self.q = None if charges is None else np.asarray(charges, dtype=float).reshape(-1)
        self.dip = (
            None if dipoles is None else np.atleast_2d(np.asarray(dipoles, dtype=float))
        )
        self.want_potential = potential
        self.want_gradient = gradient

        geom, plan = self.geom, self.plan
        n_eff = geom.centers.shape[0]
        nc = exp.n_coeffs
        self.is_complex = exp.backend == "spherical"
        dtype = complex if self.is_complex else float
        self.n_bodies = plan.body_idx.size
        self.multipoles = np.zeros((n_eff, nc), dtype=dtype)
        self.locals_ = np.zeros((n_eff, nc), dtype=dtype)
        octets = (geom.octet_rows.size, 8 * exp.m2l_degrees.size)
        self.m2l_multipoles = np.zeros(octets, dtype=dtype)
        self.m2l_locals = np.zeros(octets, dtype=dtype)
        self.pot = np.zeros(tree.n_bodies) if potential else None
        self.grad = np.zeros((tree.n_bodies, 3)) if gradient else None

        # resolve every lists-level cache now (stages must not mutate the
        # shared derived_cache dict from pool threads)
        self._p2m_basis = (
            leaf_basis(exp, plan, "p2m", lists.derived_cache)
            if self.q is not None
            else None
        )
        self._l2p_basis = leaf_basis(exp, plan, "l2p", lists.derived_cache)
        self._l2p_grad_mats = exp.l2p_gradient_matrices() if gradient else ()
        self._m2p_grad_mats = (
            exp.m2p_gradient_matrices() if (gradient and geom.w_tgt_rows.size) else ()
        )

        # level structure of the shift classes (contiguous runs by build)
        self.up_levels = level_groups(geom.up_class_levels)
        self.down_levels = level_groups(geom.down_class_levels)
        self.n_m2l_classes = len(geom.m2l_classes)

        # X/W pair expansion (precomputed outside the op spans, matching
        # the original sweep)
        self._x_pairs = pair_bodies(geom, plan, geom.x_src_rows)
        self._w_pairs = pair_bodies(geom, plan, geom.w_tgt_rows)
        self.n_p2l_rows = int(self._x_pairs[0].size)
        self.n_m2p_rows = int(self._w_pairs[0].size)

        # private per-class/stage contributions awaiting their merge
        self._up_delta: dict[int, np.ndarray] = {}
        self._m2l_delta: dict[int, np.ndarray] = {}
        self._x_contrib: np.ndarray | None = None
        self._m2p_vals: tuple = (None, None)

    # ------------------------------------------------------------ endpoints
    def p2m(self) -> None:
        """Per-body rows, segment-summed per leaf (writes leaf rows only)."""
        p2m(
            self.geom, self.plan, self.exp, self.multipoles,
            charges=self.q, dipoles=self.dip, basis=self._p2m_basis,
        )

    def l2p(self) -> None:
        """Batched leaf evaluation (assigns disjoint body rows)."""
        leaf_grad = (
            l2p_leaf_gradient(self.geom, self.locals_, A) for A in self._l2p_grad_mats
        )
        l2p(
            self.geom, self.plan, self._l2p_basis, self.locals_,
            self.pot, self.grad, leaf_grad,
        )

    # -------------------------------------------------------------- upsweep
    def m2m_delta(self, ci: int) -> None:
        """Class matmul reading child rows (one level deeper) only."""
        crows, _prows, op = self.geom.up_classes[ci]
        self._up_delta[ci] = self.multipoles[crows] @ op

    def m2m_merge(self, ci: int) -> None:
        """Fold one class delta into its parent rows (class order!)."""
        _crows, prows, _op = self.geom.up_classes[ci]
        self.multipoles[prows] += self._up_delta.pop(ci)

    # ---------------------------------------------------------- translation
    def m2l_reduce(self) -> None:
        """Finished multipoles into the source octets (whole array)."""
        m2l_reduce(self.exp, self.geom, self.multipoles, self.m2l_multipoles)

    def m2l_delta(self, ci: int) -> None:
        """Direction-class matmul (reads the source octets only)."""
        srows, _trows, op = self.geom.m2l_classes[ci]
        self._m2l_delta[ci] = self.m2l_multipoles[srows] @ op

    def m2l_merge(self, ci: int) -> None:
        """Fold one class delta into target octets (class order!)."""
        _srows, trows, _op = self.geom.m2l_classes[ci]
        self.m2l_locals[trows] += self._m2l_delta.pop(ci)

    def m2l_expand(self) -> None:
        """Assign ``locals_`` from the merged target octets (whole array;
        after every M2L merge, before :meth:`p2l_merge`)."""
        m2l_expand(self.exp, self.geom, self.m2l_locals, self.locals_)

    def p2l_compute(self) -> None:
        """X phase (un-folded): batched P2L contribution, parked privately."""
        self._x_contrib = p2l(
            self.geom, self.plan, self.exp, self.pts, self._x_pairs,
            charges=self.q, dipoles=self.dip,
        )

    def p2l_merge(self) -> None:
        """Fold the X contribution in (after :meth:`m2l_expand`)."""
        if self._x_contrib is None:
            return
        np.add.at(self.locals_, self.geom.x_recv_rows, self._x_contrib)
        self._x_contrib = None

    # ------------------------------------------------------------ downsweep
    def l2l_apply(self, ci: int) -> None:
        """One L2L class: reads parent rows, writes disjoint child rows.

        Each child row belongs to exactly one (level, octant) class, so
        classes of the same level are mutually scatter-safe and need no
        delta/merge split.
        """
        prows, crows, op = self.geom.down_classes[ci]
        self.locals_[crows] += self.locals_[prows] @ op

    # -------------------------------------------------------------- W phase
    def m2p_compute(self) -> None:
        """W phase: evaluate source multipoles at target-leaf bodies."""
        self._m2p_vals = m2p(
            self.geom, self.plan, self.exp, self.pts, self.multipoles,
            self._w_pairs,
            potential=self.want_potential, grad_mats=self._m2p_grad_mats,
        )

    def m2p_merge(self) -> None:
        """Scatter W-phase values into bodies (after :meth:`l2p` assigns)."""
        m2p_scatter(self.plan, self._w_pairs, self.pot, self.grad, *self._m2p_vals)
        self._m2p_vals = (None, None)

    # --------------------------------------------------------------- result
    def result(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        return self.pot, self.grad

    def healthy(self) -> bool:
        """Cheap NaN/Inf guardrail over every coefficient/output array.

        One ``sum`` reduction per array (see
        :func:`repro.resilience.guardrails.check_finite`); used by the
        numeric-quarantine tests and available to callers that want to
        validate a pass before trusting its outputs.
        """
        from repro.resilience.guardrails import check_finite

        return all(
            check_finite(arr)
            for arr in (
                self.multipoles, self.locals_, self.m2l_multipoles,
                self.m2l_locals, self.pot, self.grad,
            )
        )


def laplace_far_field(
    tree: AdaptiveOctree,
    lists: InteractionLists,
    expansion,
    *,
    charges: np.ndarray | None = None,
    dipoles: np.ndarray | None = None,
    gradient: bool = False,
    potential: bool = True,
    tracer=None,
    deadline=None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Batched far-field potential/gradient of monopoles and/or dipoles.

    Runs the :class:`FarFieldPass` stages serially in dependency order
    (the per-node oracle it is tested against lives in
    ``tests/oracles/farfield.py``).  ``tracer`` (a
    :class:`repro.obs.Tracer`) gets one span per FMM operation with
    ``applications`` in the cost-model units of
    :meth:`InteractionLists.op_counts`.  ``deadline`` (a
    :class:`repro.util.timing.Deadline`) is checked after the geometry
    build, after P2M, after every translation class and after the M2L
    reduce and expand — so no two checks are further apart than one
    batched stage; the caller's next check (the following pass's, or the
    near field's, which then checks after every tile) closes the sweep.
    """
    if tracer is None:
        from repro.obs import NULL_TELEMETRY

        tracer = NULL_TELEMETRY.tracer
    p = FarFieldPass(
        tree,
        lists,
        expansion,
        charges=charges,
        dipoles=dipoles,
        gradient=gradient,
        potential=potential,
    )
    geom = p.geom
    check = None if deadline is None else deadline.check
    if check:
        check("geometry")

    with tracer.span("P2M", applications=p.n_bodies):
        p.p2m()
    if check:
        check("P2M")

    with tracer.span("M2M", applications=geom.n_shifts):
        for level in p.up_levels:
            for ci in level:
                p.m2m_delta(ci)
                p.m2m_merge(ci)
                if check:
                    check("M2M")

    # reduce and expand belong to the M2L span: they exist for it, and
    # ``C_M2L = time / applications`` has to pay for them
    with tracer.span("M2L", applications=geom.n_m2l):
        p.m2l_reduce()
        if check:
            check("M2L")
        for ci in range(p.n_m2l_classes):
            p.m2l_delta(ci)
            p.m2l_merge(ci)
            if check:
                check("M2L")
        p.m2l_expand()
        if check:
            check("M2L")

    if geom.x_recv_rows.size:
        with tracer.span("P2L", applications=p.n_p2l_rows):
            p.p2l_compute()
            p.p2l_merge()

    with tracer.span("L2L", applications=geom.n_shifts):
        for level in p.down_levels:
            for ci in level:
                p.l2l_apply(ci)
                if check:
                    check("L2L")

    with tracer.span("L2P", applications=p.n_bodies):
        p.l2p()

    if geom.w_tgt_rows.size:
        with tracer.span("M2P", applications=p.n_m2p_rows):
            p.m2p_compute()
            p.m2p_merge()

    return p.result()
