"""Vectorized Laplace far-field engine (geometry-class batched sweeps).

A per-node sweep applies one translation operator per node or pair (the
test-side oracle, ``tests/oracles/farfield.py``, still does).  This module
exploits the observation (Agullo et al.; Goude & Engblom) that octree
geometry is *quantized*: a child sits at one of 8 offsets from its parent
and two colleagues at one of 26 cell offsets, and every translation is
homogeneous in the cell size — halving it multiplies entry ``(a, b)`` of an
operator by an exact power of two.  So a sweep's operators are built once
per root box, at the root's cell size, with the level factors folded into
a level's shift stacks or put onto M2L's rows, and each stage is a few
gemms over dense ``(n_nodes, w)`` coefficient arrays.

Every stage runs in the **translation space**: a harmonic field has only
``w = (p+1)²`` independent Taylor coefficients (the expansion's
``width``), and the expansion builds its leaf basis, shift, M2L and
gradient operators to act on ``w``-wide rows, so the sweep never reduces
or expands a row (:mod:`repro.expansions.cartesian`; the spherical back
end is (p+1)² wide already).

M2M and L2L run **one tree level at a time over sibling octets**
(:class:`ShiftLevel`): a level's children fill the eight slots of their
parents' octet rows, and one ``(8 w, w)`` stack of the eight octants' M2M
operators at the level's shift maps each octet to its parent — eight slot
products of one batched matmul, summed in octant order; L2L is the
mirror image, one gemm with a ``(w, 8 w)`` stack from a parent to its
eight slots (:func:`m2m`, :func:`l2l`; DESIGN.md §9).

M2L — the term that dominates the sweep — runs over **sibling octets**:
the V list is implied by the colleague pairs of split nodes — V(child i
of P) is every child j of a colleague Q of P that is not adjacent to i —
so the unit of M2L work is the *colleague pair*, not the V
pair: :func:`m2l` keeps octet arrays of ``8 w``-wide rows (a split
node's eight child slots side by side; a missing child is a zero slot on
the way in and a discarded one on the way out), a pair ``(Q, P)`` is one
row-applied ``(8w, 8w)`` block whose sub-block (j, i) is the M2L core of
the child-cell displacement ``2D + o_i - o_j`` (zero where the two
children are adjacent), and the block depends only on the cell offset
``D = cell_P - cell_Q`` — one of 26 — because the cores are built at the
root's cell size and the exact power-of-two level factors go onto the
octet arrays instead (degree ``n`` of a level-``l`` node times ``2^(l n)``
on the way in, ``2^(l (n + 1))`` on the way out; DESIGN.md §9).  And 13
blocks serve the 26 directions: ``core(-d)[a, b] = (-1)^(n_a + n_b)
core(d)[a, b]``, so the block of ``-D`` is the block of ``D`` between
*mirrored* octets (child ``j`` in slot ``7 - j``, odd degrees negated),
which the octet arrays carry ``n_split`` rows below the natural ones.  A
solve applies **at most 13 M2L classes**, each one gemm, all inside one
stage (:func:`m2l`).  So every operator of a sweep comes from one immutable
:class:`~repro.expansions.operators.OperatorSet` per ``(backend, order,
h_root)`` — two shift stacks, 13 blocks — read from the
:class:`~repro.expansions.operators.OperatorStore` that the
:class:`~repro.tree.cache.ListCache` stamped on the lists: a rebuilt tree,
or another tree over the same root box, assembles none.

The engine splits per-solve state into three cached layers, all memoized
on the :class:`~repro.tree.lists.InteractionLists` via ``derived_cache``:

* :class:`FarFieldGeometry` (``structure_generation`` stamp) — node-row
  and octet layout, the per-level shift plan, direction classes with
  their operators.  Depends only on the tree *shape*: free across
  frozen-shape time steps and refits.  Built from arrays only: row state
  is the tree's :class:`~repro.tree.octree.NodeTable`, M2L pairs come from
  the lists' colleague :class:`~repro.tree.lists.PairTable` (the V table is
  read for its size alone — the cost-model count); levels and classes are
  grouped by a radix sort of their keys' dense ranks
  (:func:`_group_by_key`) and a group's rows are slices of one gather.
* :class:`LeafBodyPlan` (``generation`` stamp) — CSR body rows per
  effective leaf with body-relative coordinates.  Rebuilt on refit.
* one leaf basis table per backend (``generation`` stamp) — the L2P row
  basis over the body plan, read by P2M too: the Cartesian P2M basis is
  the L2P one times an exact +-1 per column (``p2m_sign``), the spherical
  one the same table.

A pass sweeps ``k`` **charge channels** at once — ``charges`` of shape
``(n,)`` (``k = 1``, Laplace) or ``(n, k)`` (the composite Stokeslet solver
runs ``k = 4``) — over one tree, one geometry and one operator set.  Every
coefficient and octet array is node-major with rows ``k`` channels
wide (``(n_eff, k·w)``, octets ``(n_oct, k·8w)``), so a level or class
stage is one gemm over all channels (:func:`channel_matmul`:
``rows.reshape(-1, w) @ op``) and a merge one :func:`add_rows` over wider
rows; at ``k = 1`` every
operand has the shape and the bytes of a single-channel sweep.  Outputs
are ``pot (n, k)`` / ``grad (n, k, 3)``, one-dimensional in the channel
for 1-D charges.

The sweep itself is decomposed into **stage-level closures** on
:class:`FarFieldPass` so the real execution engine
(:mod:`repro.runtime.engine`) can overlap what is independent: M2M and
L2L are one task per level in level order and M2L is one task (its class
gemms and merges in class order inside it: BLAS already runs each gemm on
every core), so every merge lands where the serial order puts it — which
is what makes a parallel run bitwise identical to a serial one.  The
arithmetic of every stage (P2M, M2M, M2L, L2L, L2P) lives in
module-level **stage functions** over plain arrays; the pass methods and
the shard workers of :mod:`repro.runtime.shards` (over arena views) both
call them.  Over real (Cartesian) rows three of them run compiled, from
the library :mod:`repro.kernels._native` builds for the near field:
:func:`p2m`, :func:`l2p` (potential and up to three gradient axes in one
pass over the basis per channel) and :func:`add_rows`, the ``rows[idx] +=
delta`` of every M2L class merge and L2L level — each bitwise the NumPy
body it replaces, which runs for complex (spherical) rows and where no
compiler resolves (DESIGN.md §9).

:meth:`FarFieldPass.add_tasks` declares the pass's stage DAG once; the
thread engine runs it and :func:`laplace_far_field`, the serial driver,
walks it in insertion order.  The walk accepts a ``tracer`` and emits one
span per FMM operation whose ``applications`` argument follows the
cost-model unit conventions of :meth:`InteractionLists.op_counts`, keeping
``C_op = time/applications`` calibration meaningful on the batched path
(the ``M2L`` span's ``applications`` stay V pairs, the cost-model unit,
however few octet pairs carry them).

Lists without a V pair have a far field of exact zeros: the pass builds
nothing and declares no task for them (:func:`far_field_is_empty`), so a
tree whose leaves are all colleagues — what a large S makes of a small
request — costs only its direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.expansions.operators import OperatorStore
from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.kernels import _native
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from repro.util.arrays import csr_ptr, segment_positions, stable_argsort

__all__ = [
    "FarFieldGeometry",
    "FarFieldPass",
    "LeafBodyPlan",
    "ShiftLevel",
    "add_rows",
    "channel_matmul",
    "channel_outputs",
    "charge_channels",
    "far_field_geometry",
    "far_field_is_empty",
    "l2l",
    "l2p",
    "l2p_leaf_gradient",
    "laplace_far_field",
    "leaf_basis",
    "leaf_body_plan",
    "m2l",
    "m2m",
    "p2m",
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


# --------------------------------------------------------------------------
# cached geometry layer (structure_generation stamp)
# --------------------------------------------------------------------------


@dataclass
class ShiftLevel:
    """The parent<->child shifts into one tree level: every level-``level``
    node, the split nodes one level up whose octets they fill, and the
    level's two shift stacks (:meth:`OperatorSet.shift_stacks`)."""

    level: int
    child_rows: np.ndarray  # node rows of the level's nodes, preorder
    parent_rows: np.ndarray  # node rows of their parents, each once, preorder
    octet: np.ndarray  # per child: its parent's index in parent_rows ...
    octant: np.ndarray  # ... and its octant there: the child's octet slot
    m2m: np.ndarray  # (8 w, w) the level's M2M stack
    l2l: np.ndarray  # (w, 8 w) the level's L2L stack


@dataclass
class FarFieldGeometry:
    """Shape-only batched-sweep artifacts for one (backend, order).

    Rows index the effective-node preorder.  M2M and L2L run one matmul per
    tree level over the level's sibling octets (:class:`ShiftLevel`, with
    the set's two shift stacks); every M2L *class* holds aligned
    source/target row arrays plus the dense row-applied block shared by
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
    shift_levels: list  # [ShiftLevel], deepest level first
    m2l_classes: list  # [(src_octets, tgt_octets, block)], one per direction +-D
    n_shifts: int  # total parent<->child shifts (M2M = L2L count)
    n_m2l: int  # total V-list pairs
    octet_rows: np.ndarray  # (2 n_split,) split-node row per octet: natural, then mirrored
    child_rows: np.ndarray  # (n_shifts,) node row of every non-root node ...
    child_slots: np.ndarray  # (2, n_shifts) ... its natural / mirrored slot, ``8 * octet + octant``
    child_levels: np.ndarray  # ... and its level


def _shift_levels(child_rows, levels, slot, split_rows, ops) -> list:
    """One :class:`ShiftLevel` per tree level, deepest first.  ``slot`` is
    every non-root node's natural octet slot, ``8 * octet + octant`` with
    octets numbered over all split nodes in preorder; within one level
    the parents' octets ascend in child order (a preorder keeps a subtree
    contiguous), so renumbering them ``0..`` is a running count."""
    out = []
    if not child_rows.size:
        return out
    order, ptr = _group_by_key(levels.max() - levels)
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        sel = order[lo:hi]
        level = int(levels[sel[0]])
        octet, octant = np.divmod(slot[sel], 8)
        first = np.diff(octet, prepend=-1) != 0
        m2m, l2l = ops.shift_stacks(level)
        out.append(
            ShiftLevel(
                level=level,
                child_rows=child_rows[sel],
                parent_rows=split_rows[octet[first]],
                octet=np.cumsum(first) - 1,
                octant=octant,
                m2m=m2m,
                l2l=l2l,
            )
        )
    return out


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
    # integer cell coordinates in units of the node's own cell size
    cell = tab.cell >> (MAX_MORTON_LEVEL - levels)[:, None]

    # ---- every non-root node's slot in its parent's octet (split nodes
    # numbered in preorder); shifts and M2L both address children by it
    child_rows = np.nonzero(parent_row >= 0)[0]
    octant = (cell[child_rows] & 1) @ np.array([1, 2, 4])
    split_rows = np.nonzero(~tab.is_leaf)[0]
    n_split = split_rows.size
    octet_of = np.where(tab.is_leaf, -1, np.cumsum(~tab.is_leaf) - 1)
    slot = octet_of[parent_row[child_rows]] * 8 + octant  # natural
    shift_levels = _shift_levels(
        child_rows, levels[child_rows], slot, split_rows, ops
    )

    # ---- M2L direction classes over sibling octets.  The V list is implied
    # by the colleague pairs of split nodes (child i of P x child j of Q,
    # not adjacent), so the pairs read here are the colleague table's, a few
    # percent of the V rows; the class of a pair is the cell offset D of its
    # two split nodes, one of 26 whatever their level — of 13, because a
    # pair at -D is the pair at D between the two nodes' *mirrored* octets
    # (child j -> 7 - j, odd degrees negated), which sit n_split rows down.
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
        stats["op_hits"] += 2 * bool(shift_levels) + len(m2l_classes)

    return store(
        FarFieldGeometry(
            eff_rows=tab.ids,
            centers=centers,
            leaf_rows=np.nonzero(tab.is_leaf)[0],
            shift_levels=shift_levels,
            m2l_classes=m2l_classes,
            n_shifts=int(child_rows.size),
            # the cost-model unit stays the V pair
            n_m2l=lists.n_pairs("v_list"),
            octet_rows=np.tile(split_rows, 2),
            child_rows=child_rows,
            child_slots=np.stack((slot, slot + 8 * n_split + 7 - 2 * octant)),
            child_levels=levels[child_rows],
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
        rowpos, cnt = segment_positions(self.ptr[leaves], self.ptr[leaves + 1])
        return LeafBodyPlan(
            body_idx=self.body_idx[rowpos],
            ptr=csr_ptr(cnt),
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
    # positions into tree.order: each leaf's [lo, hi) range, concatenated
    pos, cnt = segment_positions(tab.lo[leaf_rows], tab.hi[leaf_rows])
    body_idx, ptr = tree.order[pos], csr_ptr(cnt)
    gid = np.repeat(np.arange(leaf_rows.size, dtype=np.int64), cnt)
    rel = tree.points[body_idx] - tab.centers[leaf_rows[gid]]
    return store(LeafBodyPlan(body_idx=body_idx, ptr=ptr, gid=gid, rel=rel))


def leaf_basis(expansion, plan: LeafBodyPlan, derived_cache):
    """The L2P row basis over ``plan`` — which P2M reads too, times the
    expansion's ``p2m_sign`` — memoized per backend+order.

    ``derived_cache(key) -> (cached, store)`` is the memo: the lists'
    generation-stamped :meth:`InteractionLists.derived_cache` in process,
    a per-session dict in a shard worker.
    """
    cached, store = derived_cache(f"farfield_basis:{expansion.backend}:{expansion.order}")
    return cached if cached is not None else store(expansion.l2p_basis(plan.rel))


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
#   row dots through ``_row_dots``, per-leaf segment sums — or the compiled
#   loops that reproduce their order), so evaluating
#   them on ``plan.subset(leaves)`` — with the :func:`leaf_basis` computed
#   over that subset — yields bitwise the same rows as the full plan;
# * ``m2m``, ``l2l`` (one level each), ``m2l`` and ``l2p_leaf_gradient``
#   are matmuls: they take the full coefficient array and run whole, on
#   one worker.


def channel_matmul(rows, op):
    """``rows`` of ``k`` channels, each ``op.shape[0]`` wide, times ``op``
    per channel: one gemm over every channel of every row."""
    w_in, w_out = op.shape
    return (rows.reshape(-1, w_in) @ op).reshape(rows.shape[0], rows.shape[1] // w_in * w_out)


def charge_channels(charges, n_bodies):
    """``charges`` — ``(n,)`` or ``(n, k)``, one row per body — as
    contiguous ``(n, k)`` float rows."""
    q = np.asarray(charges, dtype=float)
    if q.ndim not in (1, 2) or q.shape[0] != n_bodies:
        raise ValueError(
            f"charges must be (n,) or (n, k) with n = {n_bodies} bodies, got {q.shape}"
        )
    return np.ascontiguousarray(q.reshape(n_bodies, -1))


def channel_outputs(charges, pot, grad):
    """A pass's ``(pot, grad)`` as its caller gets them: ``(n, k)`` /
    ``(n, k, 3)``, or ``(n,)`` / ``(n, 3)`` for 1-D ``charges`` (``None``
    stays ``None``)."""
    if np.ndim(charges) != 1:
        return pot, grad
    return tuple(None if a is None else a[:, 0] for a in (pot, grad))


def _channels(rows, width):
    """``(m, k·width)`` rows as an ``(m, k, width)`` view."""
    return rows.reshape(rows.shape[0], rows.shape[1] // width, width)


def _compiled(*arrays):
    """The compiled leaf stages where every array is real and the host
    built them, else ``None`` (the NumPy bodies run)."""
    return _native.library() if all(a.dtype == np.float64 for a in arrays) else None


def p2m(geom, plan, exp, multipoles, *, charges, basis):
    """Per-body rows, segment-summed per leaf (writes ``plan``'s leaf rows).

    ``charges`` is ``(n, k)``; ``basis`` is the :func:`leaf_basis` over
    ``plan``.
    """
    if not plan.body_idx.size:
        return
    lib = _compiled(basis, multipoles)
    if lib is not None:
        lib.leaf_p2m(plan, plan.leaf_rows(geom), charges, basis, exp.p2m_sign, multipoles)
        return
    rows = charges[plan.body_idx][:, :, None] * basis[:, None, :]
    if exp.p2m_sign is not None:
        rows *= exp.p2m_sign
    sums = _segment_sum(rows, plan.ptr)
    multipoles[plan.leaf_rows(geom)] = sums.reshape(len(sums), -1)


def _level_scale(levels, exponents) -> np.ndarray:
    """``2^(level * exponents)`` per entry of ``levels`` (an array, or one
    level): the level-free factors, exact powers of two (``exponents`` is
    per coefficient)."""
    table = np.ldexp(1.0, np.arange(np.max(levels, initial=0) + 1)[:, None] * exponents)
    return table[levels]


def m2m(shift, multipoles):
    """The multipoles of ``shift``'s parents from its children, over the
    parents' octets with the level's M2M stack, run whole.

    The children fill the slots of a zeroed slot-major ``(8, n_parent k,
    w)`` scratch, and the eight ``(n_parent k, w) @ (w, w)`` slot products
    of one batched matmul are summed in octant order, as the
    per-(level, octant) class loop sums them (DESIGN.md §9); the sum
    *assigns* the parents' rows: an internal node's multipole comes from
    its children only, all of them one level down.
    """
    w = shift.m2m.shape[1]
    kids = _channels(multipoles[shift.child_rows], w)
    n, k = shift.parent_rows.size, kids.shape[1]
    slots = np.zeros((8, n * k, w), dtype=kids.dtype)
    slots.reshape(8, n, k, w)[shift.octant, shift.octet] = kids
    rows, *rest = slots @ shift.m2m.reshape(8, w, w)
    for part in rest:
        rows += part
    multipoles[shift.parent_rows] = rows.reshape(n, -1)


def l2l(shift, locals_):
    """``shift``'s parents' locals shifted into its children: one gemm of
    the parents with the level's L2L stack, each child's slot added to the
    locals M2L left it — run whole."""
    w = shift.l2l.shape[0]
    parents = _channels(locals_[shift.parent_rows], w)
    octets = (parents.reshape(-1, w) @ shift.l2l).reshape(*parents.shape[:2], 8, w)
    kids = octets[shift.octet, :, shift.octant]
    add_rows(locals_, shift.child_rows, kids.reshape(kids.shape[0], -1))


def m2l(exp, geom, multipoles, locals_):
    """Every V pair's M2L, from the finished multipoles to ``locals_``: one
    stage, run whole, that *assigns* ``locals_`` (the root, and a slot
    without a node, get nothing) — so it lands after the last M2M level and
    before L2L adds to them, and a re-run redoes it exactly.

    * scatter — each node's row, scaled onto the root's cell size (degree
      ``n`` of a level-``l`` node times ``2^(l n)``), into its two slots of
      its parent's octet rows of a zeroed source octet array: the natural
      one, and the mirrored one with the odd degrees negated (a missing
      child's slots stay zero);
    * the direction classes, in class order — each one gemm over its
      source octets (:func:`channel_matmul`) added into its target octets
      (:func:`add_rows`);
    * gather — the inverse: a node's two target slots summed (the
      mirrored one with its odd degrees negated back) into its row, back
      to the node's own cell size (``2^(l (n + 1))``).
    """
    deg = exp.degrees
    w = deg.size
    (no, nk), (mo, mk) = (np.divmod(s, 8) for s in geom.child_slots)
    rows = _channels(multipoles, w)[geom.child_rows]
    rows *= _level_scale(geom.child_levels, deg)[:, None]
    k = rows.shape[1]
    src = np.zeros((geom.octet_rows.size, k * 8 * w), dtype=rows.dtype)
    tgt = np.zeros_like(src)
    slots = src.reshape(-1, k, 8, w)
    slots[no, :, nk] = rows
    slots[mo, :, mk] = np.multiply(rows, (-1.0) ** deg, out=rows)
    for srows, trows, op in geom.m2l_classes:
        add_rows(tgt, trows, channel_matmul(src[srows], op))
    slots = tgt.reshape(-1, k, 8, w)
    rows = slots[mo, :, mk] * (-1.0) ** deg
    rows += slots[no, :, nk]
    rows *= _level_scale(geom.child_levels, deg + 1)[:, None]
    _channels(locals_, w)[geom.child_rows] = rows


def l2p_leaf_gradient(geom, locals_, A):
    """Per-leaf derivative coefficients of one axis: a matmul, run whole."""
    return channel_matmul(locals_[geom.leaf_rows], A)


def _row_dots(basis, rows):
    """``sum_j basis[i, j] * rows[i, c, j]`` per row and channel, each row's
    value independent of which other rows are evaluated with it.

    ``einsum`` picks its reduction kernel from the operands' layout.  The
    leaf bases come out column-major, which gets the column-by-column
    accumulation for any number of rows except one: a lone row is 1-D to
    the iterator and gets the SIMD dot kernel, last-ulp different.  So a
    lone row is evaluated as a pair.
    """
    if basis.shape[0] != 1:
        return np.einsum("ij,ikj->ik", basis, rows)
    pair = np.asfortranarray(np.repeat(basis, 2, axis=0))
    return np.einsum("ij,ikj->ik", pair, np.repeat(rows, 2, axis=0))[:1]


def l2p(geom, plan, basis, locals_, pot, grad, leaf_grad=()):
    """Batched leaf evaluation (assigns ``plan``'s disjoint body rows).

    ``basis`` is the :func:`leaf_basis` over ``plan``; ``leaf_grad`` yields
    one :func:`l2p_leaf_gradient` per axis (consumed only when ``grad`` is
    wanted).  ``pot`` ``(n, k)`` / ``grad`` ``(n, k, 3)`` of ``None`` are
    skipped.  ``.real`` is a no-op view on the real Cartesian backend.
    """
    if not plan.body_idx.size or (pot is None and grad is None):
        return
    lib = _compiled(basis, locals_)
    if lib is not None:
        gk = tuple(leaf_grad) if grad is not None else ()
        ids = np.arange(geom.leaf_rows.size) if plan.leaves is None else plan.leaves
        lib.leaf_l2p(plan, basis, plan.leaf_rows(geom), locals_, pot, ids, gk, grad)
        return
    width = basis.shape[1]
    if pot is not None:
        rows = _channels(locals_[geom.leaf_rows[plan.gid]], width)
        pot[plan.body_idx] = _row_dots(basis, rows).real
    if grad is not None:
        for axis, gk in enumerate(leaf_grad):
            rows = _channels(gk[plan.gid], width)
            grad[plan.body_idx, :, axis] = _row_dots(basis, rows).real


#: a merge of fewer elements is faster as NumPy's fancy add than as a
#: checked ``ctypes`` call (~10 µs of checks and call overhead); both give
#: the same bits, so only the time depends on it (DESIGN.md §9)
_ADD_ROWS_COMPILED_MIN = 1 << 14


def add_rows(rows, idx, delta):
    """``rows[idx] += delta`` — the merge of every M2L class and L2L level
    (``idx`` without repeats: each target row once per call)."""
    lib = _compiled(rows, delta) if delta.size >= _ADD_ROWS_COMPILED_MIN else None
    if lib is None:
        rows[idx] += delta
    else:
        lib.add_rows(rows, idx, delta)


# --------------------------------------------------------------------------
# the batched sweep, decomposed into schedulable stages
# --------------------------------------------------------------------------


def far_field_is_empty(lists: InteractionLists) -> bool:
    """Whether the lists hold no well-separated (V) pair.

    Then no local expansion receives anything, and the far field of every
    body is exactly zero: the tree is a direct sum (a large leaf capacity
    S — every request the serve census solves at n <= 2000).  The count is
    known when the lists are built, without listing V.
    """
    return lists.n_pairs("v_list") == 0


class FarFieldPass:
    """One batched far-field pass split into dependency-ordered stages.

    Construction (always on the calling thread) resolves every shared
    cache — the geometry layer, the leaf body plan, P2M/L2P bases, gradient
    matrices — so the stage methods are pure compute and safe to run on
    pool threads.  The stage contract that keeps any execution order
    allowed by the dependencies **bitwise identical** to the serial order:

    * ``p2m`` / ``l2p`` write disjoint rows and may run concurrently with
      anything that does not read those rows;
    * ``m2m`` / ``l2l`` run one tree level each, whole, in level order:
      M2M assigns a level's parents from its children, L2L adds into a
      level's children from their parents;
    * ``m2l`` is one stage, run whole after the last M2M level: it reads
      ``multipoles``, keeps its octet arrays to itself and *assigns*
      ``locals_`` before the first L2L level adds to them.

    :meth:`add_tasks` declares their DAG once: the thread engine runs it,
    and :func:`laplace_far_field` walks it in insertion order.

    A pass over lists without a V pair (:func:`far_field_is_empty`) is
    :attr:`empty`: it builds no geometry, body plan or basis, reads no
    operator set, declares no task, and its :meth:`result` is zeros — what
    the stages would compute.  The lists' ``op_counts`` still price the
    P2M / M2M / L2L / L2P the paper's cost model charges such a tree.
    """

    def __init__(
        self,
        tree: AdaptiveOctree,
        lists: InteractionLists,
        expansion,
        *,
        charges: np.ndarray,
        gradient: bool = False,
        potential: bool = True,
    ) -> None:
        exp = expansion
        self.exp = exp
        self.charges = charges
        self.q = charge_channels(charges, tree.n_bodies)
        k = self.q.shape[1]
        self.pot = np.zeros((tree.n_bodies, k)) if potential else None
        self.grad = np.zeros((tree.n_bodies, k, 3)) if gradient else None
        #: no V pair: nothing to resolve or run, the result is these zeros
        self.empty = far_field_is_empty(lists)
        if self.empty:
            return

        self.geom = far_field_geometry(tree, lists, exp)
        self.plan = leaf_body_plan(tree, lists)
        geom, plan = self.geom, self.plan
        n_eff = geom.centers.shape[0]
        dtype = complex if exp.backend == "spherical" else float
        self.n_bodies = plan.body_idx.size
        self.multipoles = np.zeros((n_eff, k * exp.width), dtype=dtype)
        self.locals_ = np.zeros((n_eff, k * exp.width), dtype=dtype)

        # resolve every lists-level cache now (stages must not mutate the
        # shared derived_cache dict from pool threads)
        self._basis = leaf_basis(exp, plan, lists.derived_cache)
        self._l2p_grad_mats = exp.l2p_gradient_matrices() if gradient else ()

    # ------------------------------------------------------------ endpoints
    def p2m(self) -> None:
        """Per-body rows, segment-summed per leaf (writes leaf rows only)."""
        p2m(
            self.geom, self.plan, self.exp, self.multipoles,
            charges=self.q, basis=self._basis,
        )

    def l2p(self) -> None:
        """Batched leaf evaluation (assigns disjoint body rows)."""
        leaf_grad = (
            l2p_leaf_gradient(self.geom, self.locals_, A) for A in self._l2p_grad_mats
        )
        l2p(
            self.geom, self.plan, self._basis, self.locals_,
            self.pot, self.grad, leaf_grad,
        )

    # ---------------------------------------------------------------- shifts
    def m2m(self, shift: ShiftLevel) -> None:
        """Assign one level's parents' multipoles from its children."""
        m2m(shift, self.multipoles)

    def l2l(self, shift: ShiftLevel) -> None:
        """Add one level's parents' locals into its children."""
        l2l(shift, self.locals_)

    # ---------------------------------------------------------- translation
    def m2l(self) -> None:
        """Assign ``locals_`` from the finished multipoles (whole arrays)."""
        m2l(self.exp, self.geom, self.multipoles, self.locals_)

    # ------------------------------------------------------------- schedule
    def add_tasks(self, g) -> int | None:
        """Declare this pass's stage DAG in ``g`` (a
        :class:`~repro.runtime.engine.TaskGraphBuilder`); returns the id of
        the task after which :meth:`result` is complete — ``None`` for an
        :attr:`empty` pass, which declares nothing (its result is complete
        at construction).  The DAG does not depend on the channel count:
        every task covers all channels.

        The one schedule of the pass: the thread engine runs it, and
        :func:`~repro.runtime.engine.run_in_order` walks it in insertion
        order — the serial sweep.  Every task carries its cost-model ``op``
        and ``applications`` (:meth:`InteractionLists.op_counts` units);
        ``retryable=False`` marks the in-place adds, which a failure may
        not re-run::

            P2M -> M2M(d) -> ... -> M2M(1) -> M2L
              -> L2L(1) -> ... -> L2L(d) -> L2P

        ``M2M(l)`` / ``L2L(l)`` are one batched matmul / one gemm over the
        octets of level ``l``'s parents, whatever the tree's adaptivity;
        ``M2L`` is one task whatever the number of direction classes.
        """
        if self.empty:
            return None
        geom = self.geom
        t_p2m = g.add(
            self.p2m, label="P2M", op="P2M", applications=self.n_bodies
        )

        # ---- upsweep: one task per level, deepest first (each assigns its
        # parents' rows whole, so a retry redoes it exactly)
        upsweep_done = t_p2m
        for shift in geom.shift_levels:
            upsweep_done = g.add(
                partial(self.m2m, shift),
                label=f"M2M:{shift.level}",
                deps=(upsweep_done,),
                op="M2M",
                applications=int(shift.child_rows.size),
            )

        # ---- M2L: one task, retryable (its octets are its own and it
        # assigns locals_).  Applications are V pairs, the cost-model unit
        translate_done = g.add(
            self.m2l, label="M2L", deps=(upsweep_done,), op="M2L",
            applications=geom.n_m2l,
        )

        # ---- downsweep: one task per level, shallowest first
        downsweep_done = translate_done
        for shift in reversed(geom.shift_levels):
            downsweep_done = g.add(
                partial(self.l2l, shift),
                label=f"L2L:{shift.level}",
                deps=(downsweep_done,),
                op="L2L",
                applications=int(shift.child_rows.size),
                retryable=False,
            )

        return g.add(
            self.l2p,
            label="L2P",
            deps=(downsweep_done,),
            op="L2P",
            applications=self.n_bodies,
        )

    # --------------------------------------------------------------- result
    def result(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(pot, grad)`` shaped by :func:`channel_outputs` (``None`` where
        not requested)."""
        return channel_outputs(self.charges, self.pot, self.grad)


def laplace_far_field(
    tree: AdaptiveOctree,
    lists: InteractionLists,
    expansion,
    *,
    charges: np.ndarray,
    gradient: bool = False,
    potential: bool = True,
    tracer=None,
    deadline=None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Batched far-field potential/gradient of point charges: ``charges``
    ``(n,)`` or ``(n, k)``, results shaped as :meth:`FarFieldPass.result`.

    Walks :meth:`FarFieldPass.add_tasks`' DAG in insertion order on the
    calling thread (the per-node oracle it is tested against lives in
    ``tests/oracles/farfield.py``).  ``tracer`` (a
    :class:`repro.obs.Tracer`) gets one span per FMM operation with
    ``applications`` in the cost-model units of
    :meth:`InteractionLists.op_counts`.  ``deadline`` (a
    :class:`repro.util.timing.Deadline`) is checked after the geometry
    build and after every task, so no two checks are further apart than
    one task.
    """
    # imported here: repro.runtime's package init imports the shard
    # workers, which import this module
    from repro.runtime.engine import TaskGraphBuilder, run_in_order

    p = FarFieldPass(
        tree, lists, expansion, charges=charges, gradient=gradient, potential=potential
    )
    if deadline is not None:
        deadline.check("geometry")
    g = TaskGraphBuilder()
    p.add_tasks(g)
    run_in_order(g, tracer=tracer, deadline=deadline)
    return p.result()
