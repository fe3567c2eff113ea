"""Batched near-field (P2P) evaluation.

The naive near field walks target leaves one at a time, and for each leaf
re-derives its body indices (one ``tree.bodies`` call per source node per
leaf) before issuing one small kernel call per leaf — roughly ``O(near
pairs)`` Python interpreter work on top of the kernel arithmetic.  This
module flattens ``near_sources`` once into CSR-style target/source *body*
index arrays, groups target leaves that share an identical source-leaf
set (their targets stack into a single dense block against the shared
source block), and evaluates one large kernel call per distinct source
set.  Bodies whose own leaf appears in its source set get one bulk
``self_interaction`` subtraction at the end — every kernel in the repo
evaluates its own self pair to exactly that value (singular kernels
suppress it to zero), so including the self block in the dense call and
subtracting keeps results within float round-off of the per-leaf path.

The plan (index arrays + group offsets) is memoized on the
:class:`~repro.tree.lists.InteractionLists` via ``derived_cache``, stamped
by the tree's ``generation``: a frozen-shape *and* frozen-body step reuses
it outright, while ``refit`` (which reorders bodies) rebuilds only the
plan, not the lists.

Refits get a cheaper path still: the plan's *skeleton* — gather positions
into ``tree.order``, group pointers, pair totals — depends only on the
tree shape and the per-leaf population counts (node ``lo``/``hi`` offsets
are cumulative leaf counts in Morton order).  The skeleton is kept in a
``structure_generation``-stamped slot together with a leaf-population
signature; when a refit leaves every effective leaf's count unchanged the
plan is *refreshed* by re-gathering ``tree.order`` at the stored
positions instead of being rebuilt from ``near_sources``.  Build, refresh
and hit counters accumulate in ``lists.nearfield_plan_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.base import Kernel
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = [
    "NearFieldPass",
    "NearFieldPlan",
    "build_near_field_plan",
    "evaluate_near_field",
    "evaluate_near_group",
    "near_self_correction",
]


def _segment_positions(lo: np.ndarray, hi: np.ndarray):
    """Concatenated positions ``lo[k]:hi[k]``; returns (positions, counts)."""
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), cnt
    ends = np.cumsum(cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - cnt, cnt)
    return np.repeat(lo, cnt) + within, cnt


@dataclass
class NearFieldPlan:
    """Flattened near-field work: one entry per distinct source set.

    ``tgt_idx``/``src_idx`` hold body indices back to back per group;
    ``tgt_ptr``/``src_ptr`` are the CSR offsets.  ``self_idx`` lists every
    body whose own leaf is included in its source set (the bulk
    self-interaction correction).
    """

    tgt_idx: np.ndarray
    tgt_ptr: np.ndarray
    src_idx: np.ndarray
    src_ptr: np.ndarray
    self_idx: np.ndarray
    n_groups: int
    #: total body-pair interactions the plan evaluates (throughput metric)
    total_pairs: int

    def group(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """``(t_idx, s_idx)`` body indices of source-set group ``g``."""
        tp, sp = self.tgt_ptr, self.src_ptr
        return self.tgt_idx[tp[g] : tp[g + 1]], self.src_idx[sp[g] : sp[g + 1]]

    def group_pairs(self, g: int) -> int:
        """Body-pair interactions of group ``g`` (task cost weight)."""
        nt = int(self.tgt_ptr[g + 1] - self.tgt_ptr[g])
        ns = int(self.src_ptr[g + 1] - self.src_ptr[g])
        return nt * ns


@dataclass
class _PlanSkeleton:
    """Body-count-dependent but order-independent part of a plan.

    ``*_pos`` index into ``tree.order``; re-gathering them yields a valid
    plan after any refit that kept every leaf's population unchanged
    (``leaf_ids``/``leaf_counts`` is the validity signature).
    """

    tgt_pos: np.ndarray
    tgt_ptr: np.ndarray
    src_pos: np.ndarray
    src_ptr: np.ndarray
    self_pos: np.ndarray
    n_groups: int
    total_pairs: int
    leaf_ids: list
    leaf_counts: np.ndarray


def _plan_stats(lists: InteractionLists) -> dict[str, int]:
    stats = getattr(lists, "nearfield_plan_stats", None)
    if stats is None:
        stats = {"builds": 0, "refreshes": 0, "hits": 0}
        lists.nearfield_plan_stats = stats
    stats.setdefault("patched", 0)
    return stats


def _row_signatures(lists: InteractionLists) -> dict[int, tuple]:
    """Per-target-leaf sorted source signatures, patched across repairs.

    Grouping targets by identical source sets needs one ``sorted`` per
    near row — the dominant Python cost of a plan build.  The signatures
    are kept on the lists as a plain attribute (surviving
    ``drop_structural_derived``); an incremental list repair records the
    rows it touched in ``lists._near_rows_changed``, so after a repair
    only those rows are re-sorted and every other signature is reused.
    """
    sigs = getattr(lists, "_near_row_sigs", None)
    dirty = getattr(lists, "_near_rows_changed", None)
    near = lists.near_sources
    if sigs is None or dirty is None:
        fresh = {t: tuple(sorted(srcs)) for t, srcs in near.items()}
        patched = False
    else:
        fresh = {}
        for t, srcs in near.items():
            sig = sigs.get(t) if t not in dirty else None
            fresh[t] = tuple(sorted(srcs)) if sig is None else sig
        patched = True
    lists._near_row_sigs = fresh
    lists._near_rows_changed = set()
    if patched:
        _plan_stats(lists)["patched"] += 1
    return fresh


def _plan_from_skeleton(order: np.ndarray, skel: _PlanSkeleton) -> NearFieldPlan:
    return NearFieldPlan(
        tgt_idx=order[skel.tgt_pos],
        tgt_ptr=skel.tgt_ptr,
        src_idx=order[skel.src_pos],
        src_ptr=skel.src_ptr,
        self_idx=order[skel.self_pos],
        n_groups=skel.n_groups,
        total_pairs=skel.total_pairs,
    )


def build_near_field_plan(tree: AdaptiveOctree, lists: InteractionLists) -> NearFieldPlan:
    """Build (or fetch the memoized, or refresh the skeleton-valid) plan."""
    cached, store = lists.derived_cache("near_field_plan")
    stats = _plan_stats(lists)
    if cached is not None:
        stats["hits"] += 1
        return cached

    skel_cached, skel_store = lists.derived_cache("near_field_skeleton", structural=True)
    if skel_cached is not None:
        counts = np.array(
            [tree.nodes[l].count for l in skel_cached.leaf_ids], dtype=np.int64
        )
        if np.array_equal(counts, skel_cached.leaf_counts):
            stats["refreshes"] += 1
            return store(_plan_from_skeleton(tree.order, skel_cached))

    stats["builds"] += 1
    nodes = tree.nodes
    order = tree.order
    node_lo = np.fromiter((n.lo for n in nodes), dtype=np.int64, count=len(nodes))
    node_hi = np.fromiter((n.hi for n in nodes), dtype=np.int64, count=len(nodes))

    # group target leaves by their exact source-leaf set (signatures are
    # patched, not recomputed, across incremental list repairs)
    row_sig = _row_signatures(lists)
    groups: dict[tuple, list[int]] = {}
    self_leaves: list[int] = []
    for t, sources in lists.near_sources.items():
        groups.setdefault(row_sig[t], []).append(t)
        if t in sources:
            self_leaves.append(t)

    sig_arrs = [np.fromiter(sig, dtype=np.int64, count=len(sig)) for sig in groups]
    tgt_arrs = [np.fromiter(ts, dtype=np.int64, count=len(ts)) for ts in groups.values()]
    empty = np.empty(0, dtype=np.int64)
    sig_flat = np.concatenate(sig_arrs) if sig_arrs else empty
    tgt_flat = np.concatenate(tgt_arrs) if tgt_arrs else empty
    sig_cnt = np.fromiter((a.size for a in sig_arrs), dtype=np.int64, count=len(sig_arrs))
    tgt_cnt = np.fromiter((a.size for a in tgt_arrs), dtype=np.int64, count=len(tgt_arrs))

    src_pos, src_body_cnt = _segment_positions(node_lo[sig_flat], node_hi[sig_flat])
    tgt_pos, tgt_body_cnt = _segment_positions(node_lo[tgt_flat], node_hi[tgt_flat])
    # per-group body counts: sum the per-leaf counts within each group
    gid_src = np.repeat(np.arange(len(sig_arrs)), sig_cnt)
    gid_tgt = np.repeat(np.arange(len(tgt_arrs)), tgt_cnt)
    src_per_group = np.bincount(gid_src, weights=src_body_cnt, minlength=len(sig_arrs)).astype(np.int64)
    tgt_per_group = np.bincount(gid_tgt, weights=tgt_body_cnt, minlength=len(tgt_arrs)).astype(np.int64)
    src_ptr = np.concatenate(([0], np.cumsum(src_per_group))).astype(np.int64)
    tgt_ptr = np.concatenate(([0], np.cumsum(tgt_per_group))).astype(np.int64)

    sl = np.fromiter(self_leaves, dtype=np.int64, count=len(self_leaves))
    self_pos, _ = _segment_positions(node_lo[sl], node_hi[sl])

    leaf_ids = tree.leaves()
    skel = _PlanSkeleton(
        tgt_pos=tgt_pos,
        tgt_ptr=tgt_ptr,
        src_pos=src_pos,
        src_ptr=src_ptr,
        self_pos=self_pos,
        n_groups=len(sig_arrs),
        total_pairs=int((tgt_per_group * src_per_group).sum()),
        leaf_ids=leaf_ids,
        leaf_counts=np.array([nodes[l].count for l in leaf_ids], dtype=np.int64),
    )
    skel_store(skel)
    return store(_plan_from_skeleton(order, skel))


def evaluate_near_group(kernel: Kernel, pts, q, t_idx, s_idx, pot, grad) -> None:
    """One dense ``(t_idx, s_idx)`` block accumulated into its target rows.

    ``pot`` / ``grad`` are the full per-body outputs (``None`` = not
    wanted; ``pot`` is 1-D for scalar kernels).  The single group body of
    every back end: serial and engine through :meth:`NearFieldPass.group`,
    shard workers over their arena views.
    """
    if t_idx.size == 0 or s_idx.size == 0:
        return
    block, g = kernel.pairwise(
        pts[t_idx],
        pts[s_idx],
        q[s_idx],
        potential=pot is not None,
        gradient=grad is not None,
    )
    if pot is not None:
        pot[t_idx] += block[:, 0] if pot.ndim == 1 else block
    if grad is not None:
        grad[t_idx] += g


def near_self_correction(kernel: Kernel, pts, q, self_idx, pot, grad) -> None:
    """Subtract the self pair of bodies whose own leaf was a source.

    Zero for singular kernels; one bulk call after *every* group has
    accumulated (it subtracts from rows the groups wrote), whole, on one
    worker.  ``pot`` / ``grad`` as in :func:`evaluate_near_group`.
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
    """One P2P evaluation split into per-source-group stages.

    Target leaves are *partitioned* across groups (each leaf belongs to
    exactly one source-set group), so :meth:`group` calls write disjoint
    body rows and may execute concurrently in any order with bitwise
    identical results; :meth:`self_correction` must run after every group
    (it subtracts from rows the groups wrote).  Construction resolves the
    plan cache on the calling thread, so the stages are pure compute.
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
        self.n_groups = self.plan.n_groups

    def group_pairs(self, g: int) -> int:
        """Body-pair interactions of group ``g`` (task cost weight)."""
        return self.plan.group_pairs(g)

    def group(self, g: int) -> None:
        """One dense kernel call; writes this group's target rows only."""
        evaluate_near_group(
            self.kernel, self.pts, self.q, *self.plan.group(g), self.pot, self.grad
        )

    def group_range(self, lo: int, hi: int) -> None:
        """Groups ``[lo, hi)`` in order — the chunked task granularity."""
        for g in range(lo, hi):
            self.group(g)

    def self_correction(self) -> None:
        """The bulk self-pair subtraction, after all groups."""
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
    """Evaluate the P2P phase in one large kernel call per source group.

    Returns ``(pot, grad)`` with the same shapes and semantics as the
    per-leaf near-field loop: ``pot`` is ``(n,)`` for scalar kernels and
    ``(n, value_dim)`` for vector kernels, ``grad`` is ``(n, 3)``; entries
    for bodies outside any near pair stay zero.  This is the serial driver
    over the :class:`NearFieldPass` stages (the parallel one lives in
    :mod:`repro.runtime.graphs`).  ``deadline`` (a
    :class:`repro.util.timing.Deadline`) is checked after the plan build
    and after every group.
    """
    p = NearFieldPass(
        kernel, tree, lists, strengths, potential=potential, gradient=gradient
    )
    if deadline is None:
        p.group_range(0, p.n_groups)
    else:
        deadline.check("near-plan")
        for g in range(p.n_groups):
            p.group(g)
            deadline.check("P2P")
    p.self_correction()
    return p.result()
