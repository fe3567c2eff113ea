"""Batched near-field (P2P) evaluation over tiles of same-shape groups.

The lists' near-source :class:`~repro.tree.lists.PairTable` and the tree's
:class:`~repro.tree.octree.NodeTable` are turned once into CSR-style
target/source *body* index arrays — arrays in, arrays out: every near row
is sorted by one sort of the table, and a row's **signature** is the bytes
of its sorted source ids.  Target leaves that share a signature, i.e. an
identical source-leaf set, form a **group** (their targets stack into one
dense block against the shared source block), and groups are ordered by
shape — target count exact,
source count rounded up to a multiple of ``_SRC_ROUND`` — so that a run of
same-shape groups can be handed to the kernel as one ``(G, T, 3)`` x ``(G,
S, 3)`` batch.  Such a run, cut where its stacked temporaries would exceed
the kernel's ``_TILE_ELEMS`` budget, is a **tile**: the one unit of
near-field work for the serial loop (deadline checks), the thread engine
(task chunks) and the shard workers (LPT assignment) alike.  A group
larger than the budget is a tile of its own, which the kernel walks over
target rows.  Every back end hands a list of tiles to one stage function,
:func:`evaluate_near_tiles` → :meth:`Kernel.near_tiles
<repro.kernels.base.Kernel.near_tiles>`: the Laplace kernels read the
plan's index arrays in place in one compiled call (``p2p_tiles`` in
``kernels/_p2p.c``), every other kernel gathers each tile into one batched
``pairwise`` call and scatters the result.

Padded source slots repeat the group's first source with zero strength:
they add exact zeros and need no mask beyond the zero-separation rule every
kernel already has.  The kernel's batch contract
(:mod:`repro.kernels.base`) makes a group's bits depend on its own padded
shape and data only, so results are bitwise independent of how tiles are
cut or which back end runs them.  Bodies whose own leaf appears in its
source set get one bulk ``self_interaction`` subtraction at the end —
every kernel in the repo evaluates its own self pair to exactly that value
(singular kernels suppress it to zero).

The plan (index arrays, group and tile offsets) is memoized on the
:class:`~repro.tree.lists.InteractionLists` via ``derived_cache``, stamped
by the tree's ``generation``: a frozen-shape *and* frozen-body step reuses
it outright, while ``refit`` (which reorders bodies) rebuilds only the
plan, not the lists.

Refits get a cheaper path still: the plan's *skeleton* — gather positions
into ``tree.order``, group pointers, shapes and hence tile boundaries, pair
totals — depends only on the tree shape and the per-leaf population counts
(node ``lo``/``hi`` offsets are cumulative leaf counts in Morton order).
The skeleton is kept in a ``structure_generation``-stamped slot together
with a leaf-population signature; when a refit leaves every effective
leaf's count unchanged the plan is *refreshed* by re-gathering
``tree.order`` at the stored positions instead of being rebuilt from
the near table.  When the counts did change, the rebuilt skeleton still
reuses the row signatures: lists never change once built, so those are
sorted once per lists object.  Build, refresh and hit counters (and the
latest plan's tile count) accumulate in ``lists.nearfield_plan_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.kernels.base import _TILE_ELEMS, Kernel
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from repro.util.arrays import csr_ptr

__all__ = [
    "NearFieldPass",
    "NearFieldPlan",
    "build_near_field_plan",
    "evaluate_near_field",
    "evaluate_near_tiles",
    "near_self_correction",
]


#: source counts are rounded up to a multiple of this so that groups fall
#: into few shapes (padded / real pairs: 1.06 on a uniform S=8 tree, 1.00-1.02
#: on Plummer).  Measured, not tunable: the sweep is in DESIGN.md section 7.
_SRC_ROUND = 8


def _segment_positions(lo: np.ndarray, hi: np.ndarray):
    """Concatenated positions ``lo[k]:hi[k]``; returns (positions, counts)."""
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), cnt
    ends = np.cumsum(cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - cnt, cnt)
    return np.repeat(lo, cnt) + within, cnt


#: the plan's arrays: int64 and C-contiguous, read in place by the compiled
#: entry point and mirrored unchanged into the shard arena
PLAN_ARRAYS = ("tgt_idx", "tgt_ptr", "src_idx", "src_ptr", "src_cnt", "tile_ptr", "self_idx")


@dataclass
class NearFieldPlan:
    """Flattened near-field work: one entry per distinct source set.

    ``tgt_idx``/``src_idx`` hold body indices back to back per group, in
    shape order; ``tgt_ptr``/``src_ptr`` are the CSR offsets.  Source runs
    are padded (``src_cnt`` is the real length; the slots after it repeat
    the first source).  Tile ``k`` is groups ``tile_ptr[k]:tile_ptr[k+1]``,
    all of one shape.  ``self_idx`` lists every body whose own leaf is
    included in its source set (the bulk self-interaction correction).

    Indices are read by pointer, so they are checked once, here — every
    body index in ``[0, n_bodies)``, every pointer array monotone from 0 to
    its array's end — and each call checks its own bodies and tile ids
    (:meth:`checked_tiles`).
    """

    tgt_idx: np.ndarray
    tgt_ptr: np.ndarray
    src_idx: np.ndarray
    src_ptr: np.ndarray
    src_cnt: np.ndarray
    tile_ptr: np.ndarray
    self_idx: np.ndarray
    #: total real body-pair interactions the plan evaluates (throughput metric)
    total_pairs: int
    n_bodies: int

    def __post_init__(self) -> None:
        for name in PLAN_ARRAYS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.int64))
        ptrs = ((self.tgt_ptr, self.tgt_idx.size), (self.src_ptr, self.src_idx.size),
                (self.tile_ptr, self.n_groups))
        ok = self.tgt_ptr.size == self.src_ptr.size == self.n_groups + 1 and all(
            p.size and p[0] == 0 and p[-1] == end and (np.diff(p) >= 0).all() for p, end in ptrs
        )
        ok = ok and ((0 <= self.src_cnt) & (self.src_cnt <= np.diff(self.src_ptr))).all()
        if not ok or any(
            a.size and (a.min() < 0 or a.max() >= self.n_bodies)
            for a in (self.tgt_idx, self.src_idx, self.self_idx)
        ):
            raise ValueError(f"near-field plan indices out of range for {self.n_bodies} bodies")

    def checked_tiles(self, pts, q, tiles) -> np.ndarray:
        """``tiles`` as int64 ids, once ``pts`` and ``q`` are known to hold
        one row per body of the plan and every id names one of its tiles."""
        tiles = np.ascontiguousarray(tiles, dtype=np.int64)
        if not len(pts) == len(q) == self.n_bodies:
            raise ValueError(f"{len(pts)} points, {len(q)} strengths: {self.n_bodies} planned")
        if tiles.ndim != 1 or tiles.size and (tiles.min() < 0 or tiles.max() >= self.n_tiles):
            raise ValueError(f"tile ids must be a list of ints in [0, {self.n_tiles})")
        return tiles

    @property
    def n_groups(self) -> int:
        return self.src_cnt.size

    @property
    def n_tiles(self) -> int:
        return self.tile_ptr.size - 1

    def tile(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t_idx (G, T), s_idx (G, S), src_cnt (G,))`` of tile ``k``."""
        g0, g1 = self.tile_ptr[k], self.tile_ptr[k + 1]
        tp, sp = self.tgt_ptr, self.src_ptr
        return (
            self.tgt_idx[tp[g0] : tp[g1]].reshape(g1 - g0, -1),
            self.src_idx[sp[g0] : sp[g1]].reshape(g1 - g0, -1),
            self.src_cnt[g0:g1],
        )

    def group_pairs(self, g: int) -> int:
        """Real body-pair interactions of group ``g``."""
        return int((self.tgt_ptr[g + 1] - self.tgt_ptr[g]) * self.src_cnt[g])

    def tile_pairs(self, k: int) -> int:
        """Real body-pair interactions of tile ``k`` (task cost weight)."""
        g0, g1 = self.tile_ptr[k], self.tile_ptr[k + 1]
        return int((self.tgt_ptr[g0 + 1] - self.tgt_ptr[g0]) * self.src_cnt[g0:g1].sum())


@dataclass
class _PlanSkeleton:
    """Body-count-dependent but order-independent part of a plan.

    ``*_pos`` index into ``tree.order``; re-gathering them yields a valid
    plan after any refit that kept every leaf's population unchanged
    (``leaf_counts``, in node-table leaf order, is the validity signature).
    """

    tgt_pos: np.ndarray
    tgt_ptr: np.ndarray
    src_pos: np.ndarray
    src_ptr: np.ndarray
    src_cnt: np.ndarray
    tile_ptr: np.ndarray
    self_pos: np.ndarray
    total_pairs: int
    leaf_counts: np.ndarray


def _plan_stats(lists: InteractionLists) -> dict[str, int]:
    stats = getattr(lists, "nearfield_plan_stats", None)
    if stats is None:
        stats = {"builds": 0, "refreshes": 0, "hits": 0, "tiles": 0}
        lists.nearfield_plan_stats = stats
    return stats


def _row_signatures(lists: InteractionLists, near, n_ids: int) -> dict[int, bytes]:
    """Per-target-leaf source signatures, once per lists object.

    A row's signature is the bytes of its source ids, sorted: equal
    signatures are equal source sets, and decoding one gives the sources
    in the order the kernel sums them.  All rows are sorted by one sort of
    the near table ``near`` (``n_ids`` bounds the ids).  Lists never change
    once built, so the signatures are a plain attribute of the lists: a
    refit that rebuilds the skeleton reuses them.
    """
    sigs = getattr(lists, "_near_row_sigs", None)
    if sigs is None:
        # (row, source id) as one integer: a plain sort orders every row's sources
        row = np.repeat(np.arange(near.keys.size), near.counts)
        rowed = row * n_ids + near.values
        rowed.sort()
        srcs = rowed % n_ids
        ptr = csr_ptr(near.counts).tolist()
        sigs = lists._near_row_sigs = {
            t: srcs[ptr[i] : ptr[i + 1]].tobytes() for i, t in enumerate(near.keys.tolist())
        }
    return sigs


def _plan_from_skeleton(order: np.ndarray, skel: _PlanSkeleton) -> NearFieldPlan:
    return NearFieldPlan(
        tgt_idx=order[skel.tgt_pos],
        tgt_ptr=skel.tgt_ptr,
        src_idx=order[skel.src_pos],
        src_ptr=skel.src_ptr,
        src_cnt=skel.src_cnt,
        tile_ptr=skel.tile_ptr,
        self_idx=order[skel.self_pos],
        total_pairs=skel.total_pairs,
        n_bodies=order.size,
    )


def _run_sums(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum ``values`` over consecutive runs of lengths ``lens`` (empty runs
    sum to 0)."""
    gid = np.repeat(np.arange(lens.size), lens)
    return np.bincount(gid, weights=values, minlength=lens.size).astype(np.int64)


def _take_runs(flat: np.ndarray, lens: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Flattened runs with their groups taken in ``order``."""
    start = csr_ptr(lens)[:-1][order]
    return flat[_segment_positions(start, start + lens[order])[0]]


def _tile_boundaries(tgt_cnt: np.ndarray, src_pad: np.ndarray) -> np.ndarray:
    """Cut shape-ordered groups into tiles: a tile ends where the shape
    changes or one more group would exceed ``_TILE_ELEMS`` stacked pairs."""
    n = tgt_cnt.size
    new_shape = np.ones(n, dtype=bool)
    new_shape[1:] = (tgt_cnt[1:] != tgt_cnt[:-1]) | (src_pad[1:] != src_pad[:-1])
    run_start = np.flatnonzero(new_shape)
    within = np.arange(n) - run_start[np.cumsum(new_shape) - 1]
    per_tile = np.maximum(1, _TILE_ELEMS // np.maximum(1, tgt_cnt * src_pad))
    return np.append(np.flatnonzero(within % per_tile == 0), n)


def build_near_field_plan(tree: AdaptiveOctree, lists: InteractionLists) -> NearFieldPlan:
    """Build (or fetch the memoized, or refresh the skeleton-valid) plan."""
    cached, store = lists.derived_cache("near_field_plan")
    stats = _plan_stats(lists)
    if cached is not None:
        stats["hits"] += 1
        return cached

    skel, skel_store = lists.derived_cache("near_field_skeleton", structural=True)
    tab = tree.node_table()
    if skel is not None and not np.array_equal(tab.counts[tab.is_leaf], skel.leaf_counts):
        skel = None
    stats["builds" if skel is None else "refreshes"] += 1
    if skel is None:
        skel = skel_store(_build_skeleton(tab, lists))
    stats["tiles"] = skel.tile_ptr.size - 1
    return store(_plan_from_skeleton(tree.order, skel))


def _build_skeleton(tab, lists: InteractionLists) -> _PlanSkeleton:
    """The skeleton out of the near table and the tree's node table ``tab``."""
    near = lists.table("near_sources")
    row_of, body_cnt = tab.row_of, tab.counts

    # group target leaves by their exact source-leaf set, groups in order
    # of first appearance
    groups: dict[bytes, list[int]] = {}
    for t, sig in _row_signatures(lists, near, row_of.size).items():
        groups.setdefault(sig, []).append(t)
    n_groups = len(groups)
    sig_flat = np.frombuffer(b"".join(groups), dtype=np.int64)
    sig_len = np.fromiter((len(sig) >> 3 for sig in groups), dtype=np.int64, count=n_groups)
    tgt_len = np.fromiter(map(len, groups.values()), dtype=np.int64, count=n_groups)
    tgt_flat = np.fromiter(
        chain.from_iterable(groups.values()), dtype=np.int64, count=near.keys.size
    )
    src_cnt = _run_sums(body_cnt[row_of[sig_flat]], sig_len)
    tgt_cnt = _run_sums(body_cnt[row_of[tgt_flat]], tgt_len)

    # shape order: targets exact, sources rounded up to _SRC_ROUND
    order = np.lexsort((tgt_cnt, src_cnt + -src_cnt % _SRC_ROUND))
    sig_rows = row_of[_take_runs(sig_flat, sig_len, order)]
    tgt_rows = row_of[_take_runs(tgt_flat, tgt_len, order)]
    sig_len, src_cnt, tgt_cnt = sig_len[order], src_cnt[order], tgt_cnt[order]
    pad = -src_cnt % _SRC_ROUND

    # a group's sources are its leaves' runs of ``tree.order`` followed by
    # one unit run per padded slot, each on the group's first source
    lo, hi = tab.lo[sig_rows], tab.hi[sig_rows]
    first_run = np.searchsorted(np.cumsum(hi - lo), csr_ptr(src_cnt)[:-1], side="right")
    first = lo[np.repeat(first_run, pad)]
    at = np.repeat(np.cumsum(sig_len), pad)
    src_pos, _ = _segment_positions(np.insert(lo, at, first), np.insert(hi, at, first + 1))

    # leaves that are their own source, in target order
    owners = near.owners
    self_rows = row_of[owners[owners == near.values]]
    return _PlanSkeleton(
        tgt_pos=_segment_positions(tab.lo[tgt_rows], tab.hi[tgt_rows])[0],
        tgt_ptr=csr_ptr(tgt_cnt),
        src_pos=src_pos,
        src_ptr=csr_ptr(src_cnt + pad),
        src_cnt=src_cnt,
        tile_ptr=_tile_boundaries(tgt_cnt, src_cnt + pad),
        self_pos=_segment_positions(tab.lo[self_rows], tab.hi[self_rows])[0],
        total_pairs=int((tgt_cnt * src_cnt).sum()),
        leaf_counts=body_cnt[tab.is_leaf],
    )


def evaluate_near_tiles(kernel: Kernel, pts, q, plan: NearFieldPlan, tiles, pot, grad) -> None:
    """Tiles ``tiles`` (ids in any order) — one :meth:`Kernel.near_tiles
    <repro.kernels.base.Kernel.near_tiles>` call — written to their target
    rows.

    ``pot`` / ``grad`` are the full per-body outputs (``None`` = not
    wanted; ``pot`` is 1-D for scalar kernels), zero on entry: every body
    is a target of exactly one tile, so the rows are assigned, not
    accumulated, and running a tile twice is idempotent.  The single stage
    body of every back end: serial and engine through
    :meth:`NearFieldPass.tile_range`, shard workers over their arena views.
    """
    kernel.near_tiles(pts, q, plan, tiles, pot, grad)


def near_self_correction(kernel: Kernel, pts, q, self_idx, pot, grad) -> None:
    """Subtract the self pair of bodies whose own leaf was a source.

    Zero for singular kernels; one bulk call after *every* tile has
    written its rows (it subtracts from them), whole, on one worker.
    ``pot`` / ``grad`` as in :func:`evaluate_near_tiles`.
    """
    si = self_idx
    if not si.size:
        return
    if pot is not None:
        corr = kernel.self_interaction(pts[si], q[si], gradient=False)
        pot[si] -= corr[:, 0] if pot.ndim == 1 else corr
    if grad is not None:
        grad[si] -= kernel.self_interaction(pts[si], q[si], gradient=True)


class NearFieldPass:
    """One P2P evaluation split into per-tile stages.

    Target leaves are *partitioned* (each leaf belongs to exactly one
    source-set group, each group to one tile), so :meth:`tile_range` calls
    write disjoint body rows and may execute concurrently in any order with
    bitwise identical results; :meth:`self_correction` must run after
    every tile (it subtracts from rows the tiles wrote).  Construction
    resolves the plan cache on the calling thread, so the stages are pure
    compute.
    """

    def __init__(
        self,
        kernel: Kernel,
        tree: AdaptiveOctree,
        lists: InteractionLists,
        strengths: np.ndarray,
        *,
        potential: bool = True,
        gradient: bool = False,
    ) -> None:
        self.kernel = kernel
        self.plan = build_near_field_plan(tree, lists)
        self.pts = tree.points
        self.q = np.asarray(strengths, dtype=float)
        self.want_potential = potential
        self.want_gradient = gradient
        n = tree.n_bodies
        dim = kernel.value_dim
        self.dim = dim
        self.pot = None
        if potential:
            self.pot = np.zeros(n) if dim == 1 else np.zeros((n, dim))
        self.grad = np.zeros((n, 3)) if gradient else None
        self.n_tiles = self.plan.n_tiles

    def tile_range(self, lo: int, hi: int) -> None:
        """Tiles ``[lo, hi)`` in one kernel call — the chunked task
        granularity; writes these tiles' target rows only."""
        evaluate_near_tiles(
            self.kernel, self.pts, self.q, self.plan, range(lo, hi), self.pot, self.grad
        )

    def self_correction(self) -> None:
        """The bulk self-pair subtraction, after all tiles."""
        near_self_correction(
            self.kernel, self.pts, self.q, self.plan.self_idx, self.pot, self.grad
        )

    def result(self):
        return self.pot, self.grad

    def healthy(self) -> bool:
        """Cheap NaN/Inf guardrail over the output arrays (see
        :func:`repro.resilience.guardrails.check_finite`)."""
        from repro.resilience.guardrails import check_finite

        return check_finite(self.pot) and check_finite(self.grad)


def evaluate_near_field(
    kernel: Kernel,
    tree: AdaptiveOctree,
    lists: InteractionLists,
    strengths: np.ndarray,
    *,
    potential: bool = True,
    gradient: bool = False,
    deadline=None,
):
    """Evaluate the P2P phase: all tiles in one kernel call, or one call per
    tile under a deadline.

    Returns ``(pot, grad)`` with the same shapes and semantics as the
    per-leaf near-field loop: ``pot`` is ``(n,)`` for scalar kernels and
    ``(n, value_dim)`` for vector kernels, ``grad`` is ``(n, 3)``; entries
    for bodies outside any near pair stay zero.  This is the serial driver
    over the :class:`NearFieldPass` stages (the parallel one lives in
    :mod:`repro.runtime.graphs`).  ``deadline`` (a
    :class:`repro.util.timing.Deadline`) is checked after the plan build
    and after every tile, so no two checks are further apart than one tile.
    """
    p = NearFieldPass(
        kernel, tree, lists, strengths, potential=potential, gradient=gradient
    )
    if deadline is None:
        p.tile_range(0, p.n_tiles)
    else:
        deadline.check("near-plan")
        for k in range(p.n_tiles):
            p.tile_range(k, k + 1)
            deadline.check("P2P")
    p.self_correction()
    return p.result()
