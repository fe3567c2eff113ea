"""Task-graph construction for the real FMM pipeline.

Bridges the stage-level decompositions of :class:`repro.fmm.farfield.FarFieldPass`
and :class:`repro.fmm.nearfield.NearFieldPass` to the execution engine's
:class:`~repro.runtime.engine.TaskGraphBuilder`.  The DAG shape per
far-field pass:

::

    P2M ──> [M2M deltas lvl d] ─> merge(d) ─> ... ─> merge(1)   (upsweep)
                                                        │
              ┌──────────── upsweep done ───────────────┤
              ▼                                         │
    M2L reduce (multipoles -> source octets, whole)     │
              ▼                          [M2P compute]  │
    [<= 13 M2L direction deltas, parallel]    │
        │ chained class merges                │
        ▼ (class order)                       │
    M2L expand (target octets -> L, whole)    │
        ▼                                     │
    P2L merge (X phase)                       │
        ▼                                     │
    [L2L classes lvl 1] ─> ... ─> [lvl D] ─> L2P ─> M2P merge

The M2L direction-class matmuls carry essentially all of the far-field
work and there are at most 13 of them per pass, each one gemm over every
colleague pair of split nodes in one direction +-D (DESIGN.md §9) — coarse
enough to be one task each, no chunking.  Their *merges* into the shared
target-octet array form a chain in class order, which pins the
floating-point addition order to the serial sweep's and makes results
bitwise identical at any worker count.  One *reduce* task fills the
source octets from the finished multipoles and one *expand* task assigns
the full-width locals from the target octets — whole-array stages, so one
task each; M2P keeps reading the full-width multipoles beside them.  The
reduce task carries the pass's M2L ``applications`` (V pairs, the
cost-model unit): a class of octet pairs does not split into them.
Near-field tiles partition the target bodies, so their chunks run
unordered with no merge step at all; they depend on no far-field task,
so they share the graph with the far-field subgraphs and soak up worker
idle time during the (more serial) sweep phases — the paper's
``max(T_CPU, T_GPU)`` overlap, realized on actual threads.

Tasks also carry a ``retryable`` flag for the supervised engine:
assignment stages (P2M, L2P, the M2L reduce and expand) and
private-delta stages (M2M/M2L deltas, P2L/M2P computes) are idempotent
and safe to re-run after a captured failure, while the ordered in-place
merges (``+=`` into shared arrays, pop-based delta folds, the near-field
tile scatter and self-correction) are not and fail the graph immediately
— the solver then degrades to the exact serial path.

Every task is tagged with its cost-model ``op`` and an ``applications``
count in :meth:`InteractionLists.op_counts` units, so an
:class:`~repro.runtime.engine.EngineResult` aggregates measured wall-clock
straight into §IV-D observed coefficients.
"""

from __future__ import annotations

from functools import partial

from repro.fmm.farfield import FarFieldPass
from repro.fmm.nearfield import NearFieldPass
from repro.runtime.engine import TaskGraphBuilder

__all__ = [
    "add_far_field_tasks",
    "add_near_field_tasks",
    "chunk_ranges",
]


def chunk_ranges(weights, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into <= ``n_chunks`` contiguous runs
    of roughly equal total weight (zero-weight tails are not split off).

    Contiguity matters: chunked merges replay in chunk-then-class order,
    which must equal plain class order.
    """
    n = len(weights)
    if n == 0:
        return []
    n_chunks = max(1, min(n, n_chunks))
    total = float(sum(weights))
    if total <= 0.0:
        return [(0, n)]
    target = total / n_chunks
    ranges: list[tuple[int, int]] = []
    lo = 0
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        # keep the last chunk open so it absorbs the remainder
        if acc >= target and len(ranges) < n_chunks - 1:
            ranges.append((lo, i + 1))
            lo = i + 1
            acc = 0.0
    if lo < n:
        ranges.append((lo, n))
    return ranges


def add_far_field_tasks(
    g: TaskGraphBuilder,
    p: FarFieldPass,
    *,
    tag: str = "",
) -> int:
    """Add one far-field pass's stage tasks to ``g``; returns the id of
    the task after which the pass's outputs (``p.pot``/``p.grad``) are
    complete.  ``tag`` prefixes labels (the Stokeslet solver runs seven
    passes in one graph).
    """
    geom = p.geom
    t_p2m = g.add(
        p.p2m, label=f"{tag}P2M", op="P2M", applications=p.n_bodies, stage="P2M"
    )

    # ---- upsweep: per-class deltas, one ordered merge per level
    prev = t_p2m
    for level in p.up_levels:
        deltas = [
            g.add(
                partial(p.m2m_delta, ci),
                label=f"{tag}M2M:c{ci}",
                deps=(prev,),
                op="M2M",
                applications=int(geom.up_classes[ci][0].size),
                stage="M2M",
            )
            for ci in level
        ]
        prev = g.add(
            partial(_merge_up_level, p, tuple(level)),
            label=f"{tag}M2M:merge",
            deps=tuple(deltas),
            op="M2M",
            retryable=False,
            stage="M2M",
        )
    upsweep_done = prev

    # ---- M2L: reduce, one delta task per direction class fanning out,
    # merge chain in class order, expand (both ends assign whole arrays:
    # idempotent).  Applications are V pairs (the cost-model unit), which a
    # class of octet pairs does not split into: the reduce carries the total
    reduced = g.add(
        p.m2l_reduce, label=f"{tag}M2L:reduce", deps=(upsweep_done,), op="M2L",
        applications=geom.n_m2l, stage="M2L",
    )
    merge_prev = reduced
    for ci in range(p.n_m2l_classes):
        delta = g.add(
            partial(p.m2l_delta, ci),
            label=f"{tag}M2L:d{ci}",
            deps=(reduced,),
            op="M2L",
            stage="M2L",
        )
        merge_prev = g.add(
            partial(p.m2l_merge, ci),
            label=f"{tag}M2L:m{ci}",
            deps=(delta, merge_prev),
            op="M2L",
            retryable=False,
            stage="M2L",
        )
    translate_done = g.add(
        p.m2l_expand, label=f"{tag}M2L:expand", deps=(merge_prev,), op="M2L",
        stage="M2L",
    )

    # ---- X phase: compute depends on nothing (reads sources only); its
    # merge lands after the M2L expand, matching the serial order
    if geom.x_recv_rows.size:
        t_p2l = g.add(
            p.p2l_compute,
            label=f"{tag}P2L",
            op="P2L",
            applications=p.n_p2l_rows,
            stage="P2L",
        )
        translate_done = g.add(
            p.p2l_merge,
            label=f"{tag}P2L:merge",
            deps=(translate_done, t_p2l),
            op="P2L",
            retryable=False,
            stage="P2L",
        )

    # ---- downsweep: classes of one level are scatter-disjoint (each
    # child row belongs to one octant class), so they run concurrently;
    # levels form barriers
    prev_level: tuple[int, ...] = (translate_done,)
    for level in p.down_levels:
        prev_level = tuple(
            g.add(
                partial(p.l2l_apply, ci),
                label=f"{tag}L2L:c{ci}",
                deps=prev_level,
                op="L2L",
                applications=int(geom.down_classes[ci][1].size),
                retryable=False,
                stage="L2L",
            )
            for ci in level
        )

    t_l2p = g.add(
        p.l2p,
        label=f"{tag}L2P",
        deps=prev_level,
        op="L2P",
        applications=p.n_bodies,
        stage="L2P",
    )
    done = t_l2p

    # ---- W phase: evaluation reads finished multipoles; scatter must
    # follow L2P's assignment into the same body rows
    if geom.w_tgt_rows.size:
        t_m2p = g.add(
            p.m2p_compute,
            label=f"{tag}M2P",
            deps=(upsweep_done,),
            op="M2P",
            applications=p.n_m2p_rows,
            stage="M2P",
        )
        done = g.add(
            p.m2p_merge,
            label=f"{tag}M2P:merge",
            deps=(t_l2p, t_m2p),
            op="M2P",
            retryable=False,
            stage="M2P",
        )
    return done


def add_near_field_tasks(
    g: TaskGraphBuilder,
    p: NearFieldPass,
    *,
    tag: str = "near",
    n_chunks: int = 8,
) -> int:
    """Add the P2P stage tasks; returns the id of the finishing task."""
    weights = [p.plan.tile_pairs(k) for k in range(p.n_tiles)]
    tile_tasks = [
        g.add(
            partial(p.tile_range, lo, hi),
            label=f"{tag}:t{lo}-{hi}",
            op="P2P",
            applications=int(sum(weights[lo:hi])),
            retryable=False,
            stage="P2P",
        )
        for lo, hi in chunk_ranges(weights, n_chunks)
    ]
    return g.add(
        p.self_correction,
        label=f"{tag}:self",
        deps=tuple(tile_tasks),
        op="P2P",
        retryable=False,
        stage="P2P",
    )


# ---- bound helpers (picklable/partial-friendly, and kept off the hot
# closures so labels stay informative in traces)


def _merge_up_level(p: FarFieldPass, cis: tuple[int, ...]) -> None:
    for ci in cis:
        p.m2m_merge(ci)
