"""Near-field (P2P) evaluation over tiles of same-shape groups.

The lists' near-source :class:`~repro.tree.lists.PairTable` and the tree's
:class:`~repro.tree.octree.NodeTable` are turned once into a plan — arrays
in, arrays out: every near row is sorted by one sort of the table, and a
row's **signature** is the bytes of its sorted source ids.  Target leaves
that share a signature, i.e. an identical source-leaf set, form a
**group** (their targets stack into one dense block against the shared
sources).  A group's targets are body indices; its sources are **leaf
runs**, ``(lo, hi)`` ranges of ``tree.order`` (which the plan carries),
one per source leaf or per run of consecutive ones — so the plan is sized
by the near *leaf* pairs, not by the body pairs they expand to.  Groups
are ordered by shape — target count exact, source count rounded up to a
multiple of ``_SRC_ROUND`` — and a run of same-shape groups, cut where its
stacked pairs would exceed ``_TILE_ELEMS``, is a **tile**: the one unit of
near-field work for the serial driver and the thread engine (chunks cut by
:attr:`NearFieldPlan.tile_weights`: the serial driver's one per lane — the
usable CPUs shared among the solves in flight — run claimed on the calling
thread and the process-wide helpers of
:func:`~repro.runtime.engine.run_claimed`) and the shard workers (LPT
assignment) alike.  A group larger than the budget is a tile of its own,
and a group of more than ``_SLICE_PAIRS`` pairs is first cut into slices
of its target rows, each over all of its sources, so that no one tile can
hold most of the work.  Every back end hands a list
of tiles to one stage function, :func:`evaluate_near_tiles` →
:meth:`Kernel.near_tiles <repro.kernels.base.Kernel.near_tiles>`: the
Laplace kernels and the Stokeslet walk the runs in place in one compiled
call (``p2p_tiles`` / ``stokeslet_tiles`` in ``kernels/_p2p.c``); any
other kernel, and every kernel where no compiler resolves, gathers each
tile into one stacked call (:meth:`NearFieldPlan.stacked_tiles`: each
group's sources padded to the tile's width with zero-strength copies of
its first source) and scatters its rows.

Either way a target row's bits depend on its group's sources only (the
row contract of :mod:`repro.kernels.base`), so results are bitwise
independent of how tiles are cut or which back end runs them.  Bodies
whose own leaf appears in its source set get one bulk
``self_interaction`` subtraction at the end — every kernel in the repo
evaluates its own self pair to exactly that value (singular kernels
suppress it to zero).

The plan is memoized on the :class:`~repro.tree.lists.InteractionLists`
via ``derived_cache``, stamped by the tree's ``generation``: a
frozen-shape *and* frozen-body step reuses it outright.  A refit (which
moves bodies between leaves and reorders them) *refreshes* it: the
grouping of target leaves by source set — the one part that sorts the
near table — depends on the tree shape alone and is kept in a
``structure_generation``-stamped slot, so a refresh recomputes only what
the leaf populations decide (group sizes, shape order, source runs,
target and self positions, tiles), array for array what a fresh build
gives.  Build (a new shape), refresh and hit counters (and the latest
plan's tile count) accumulate in ``lists.nearfield_plan_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

import numpy as np

from repro.kernels.base import _TILE_ELEMS, Kernel
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from repro.util.arrays import csr_ptr, segment_positions

__all__ = [
    "NearFieldPass",
    "NearFieldPlan",
    "build_near_field_plan",
    "evaluate_near_field",
    "evaluate_near_tiles",
    "near_self_correction",
]


#: source counts are rounded up to a multiple of this when groups are put in
#: shape order, so that a tile's groups share one of few shapes (rounded /
#: real pairs: 1.06 on a uniform S=8 tree, 1.00-1.02 on Plummer).  Measured,
#: not tunable: the sweep is in DESIGN.md section 7.
_SRC_ROUND = 8

#: a group of more target x source pairs than this is cut into slices of
#: its target rows, each over all of its sources (a row's bits depend on
#: its sources only, so slicing moves no bit): one group cannot then hold
#: half the work of a tree of few big leaves (compact Plummer 2k at S=246:
#: 1.84 M of 3.75 M pairs), and the tiles cut into as many chunks as there
#: are CPUs.  Measured, not tunable: the sweep is in DESIGN.md section 7.
_SLICE_PAIRS = 2**18


#: the plan's arrays: int64 and C-contiguous, read in place by the compiled
#: entry points and mirrored unchanged into the shard arena
PLAN_ARRAYS = ("tgt_idx", "tgt_ptr", "order", "src_lo", "src_hi", "run_ptr", "src_cnt",
               "tile_ptr", "self_idx")


@dataclass
class NearFieldPlan:
    """Flattened near-field work: one group per distinct source set, or
    per target-row slice of one (``_SLICE_PAIRS``).

    ``tgt_idx`` holds body indices back to back per group, in shape order,
    and ``tgt_ptr`` is its CSR offsets.  Group ``g``'s sources are the
    leaf runs ``run_ptr[g]:run_ptr[g+1]`` of ``(src_lo, src_hi)`` — each
    one source leaf or several consecutive ones: body ``order[p]`` for
    every ``p`` in ``src_lo[r]:src_hi[r]``, run after run, ``src_cnt[g]``
    bodies in all (``order`` is the tree's body order).  Tile ``k`` is
    groups ``tile_ptr[k]:tile_ptr[k+1]``, all of one shape.  ``self_idx``
    lists every body whose own leaf is included in its source set (the
    bulk self-interaction correction).

    Indices are read by pointer, so they are checked once, here — every
    body index in ``[0, n_bodies)``, every run inside ``order``, every
    pointer array monotone from 0 to its array's end, ``src_cnt`` each
    group's run total — and each call checks its own bodies and tile ids
    (:meth:`checked_tiles`).
    """

    tgt_idx: np.ndarray
    tgt_ptr: np.ndarray
    order: np.ndarray
    src_lo: np.ndarray
    src_hi: np.ndarray
    run_ptr: np.ndarray
    src_cnt: np.ndarray
    tile_ptr: np.ndarray
    self_idx: np.ndarray
    #: total real body-pair interactions the plan evaluates (throughput metric)
    total_pairs: int
    n_bodies: int

    def __post_init__(self) -> None:
        for name in PLAN_ARRAYS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.int64))
        n, lo, hi = self.n_bodies, self.src_lo, self.src_hi
        ptrs = ((self.tgt_ptr, self.tgt_idx.size), (self.run_ptr, lo.size),
                (self.tile_ptr, self.n_groups))
        ok = self.order.size == n and lo.size == hi.size
        ok = ok and self.tgt_ptr.size == self.run_ptr.size == self.n_groups + 1 and all(
            p.size and p[0] == 0 and p[-1] == end and (np.diff(p) >= 0).all() for p, end in ptrs
        )
        ok = ok and (not lo.size or lo.min() >= 0 and hi.max() <= n and (lo <= hi).all())
        ok = ok and np.array_equal(self.src_cnt, np.diff(csr_ptr(hi - lo)[self.run_ptr]))
        if not ok or any(
            a.size and (a.min() < 0 or a.max() >= n)
            for a in (self.order, self.tgt_idx, self.self_idx)
        ):
            raise ValueError(f"near-field plan indices out of range for {n} bodies")

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

    def stacked_tiles(self, tiles):
        """Per tile id of ``tiles`` (an int array), in order: ``(t_idx (G,
        T), s_idx (G, S), padded (G, S))`` — each group's source bodies run
        after run (the order every body of the near field sums them in),
        padded to the tile's width, its source count rounded up to
        ``_SRC_ROUND``, with its first source; ``padded`` marks those slots.
        The index work is done once for all of ``tiles``."""
        bounds = csr_ptr(self.tile_ptr[tiles + 1] - self.tile_ptr[tiles])
        groups = segment_positions(self.tile_ptr[tiles], self.tile_ptr[tiles + 1])[0]
        runs = segment_positions(self.run_ptr[groups], self.run_ptr[groups + 1])[0]
        real = self.order[segment_positions(self.src_lo[runs], self.src_hi[runs])[0]]
        cnt = self.src_cnt[groups]
        pad = -cnt % _SRC_ROUND
        ends, short = csr_ptr(cnt), pad > 0  # a short group has a first source
        src = np.insert(real, np.repeat(ends[1:][short], pad[short]),
                        np.repeat(real[ends[:-1][short]], pad[short]))
        slots, t0, t1 = csr_ptr(cnt + pad), self.tgt_ptr[groups], self.tgt_ptr[groups + 1]
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            s_idx = src[slots[a] : slots[b]].reshape(b - a, -1)
            yield (self.tgt_idx[t0[a] : t1[b - 1]].reshape(b - a, -1), s_idx,
                   np.arange(s_idx.shape[1]) >= cnt[a:b, None])

    def tile_sources(self, tiles) -> np.ndarray:
        """The distinct source bodies of the tile ids ``tiles`` (an int
        array), ascending: every position of ``order`` their groups' runs
        cover (runs of two groups may overlap) — a shard's near halo."""
        g0, g1 = self.tile_ptr[tiles], self.tile_ptr[tiles + 1]
        runs, _ = segment_positions(self.run_ptr[g0], self.run_ptr[g1])
        edge = partial(np.bincount, minlength=self.n_bodies + 1)
        depth = np.cumsum(edge(self.src_lo[runs]) - edge(self.src_hi[runs]))
        return np.sort(self.order[depth[:-1] > 0])

    @cached_property
    def tile_weights(self) -> np.ndarray:
        """Real body-pair interactions per tile (the task cost weight)."""
        return np.diff(csr_ptr(np.diff(self.tgt_ptr) * self.src_cnt)[self.tile_ptr])


@dataclass
class _PlanGroups:
    """The shape-only part of a plan: target leaves grouped by their exact
    source-leaf set, groups in order of first appearance (node rows).

    Group ``g``'s source leaves are ``sig_rows`` run ``g`` (``sig_len``
    long), its target leaves ``tgt_rows`` run ``g`` (``tgt_len``);
    ``self_rows`` are the leaves that are their own source, in target
    order.  Everything else a plan holds follows from these and the
    leaf populations (:func:`_plan_from_groups`).
    """

    sig_rows: np.ndarray
    sig_len: np.ndarray
    tgt_rows: np.ndarray
    tgt_len: np.ndarray
    self_rows: np.ndarray


def _plan_stats(lists: InteractionLists) -> dict[str, int]:
    stats = getattr(lists, "nearfield_plan_stats", None)
    if stats is None:
        stats = {"builds": 0, "refreshes": 0, "hits": 0, "tiles": 0}
        lists.nearfield_plan_stats = stats
    return stats


def _run_sums(values: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum integer ``values`` over consecutive runs of lengths ``lens``
    (empty runs sum to 0)."""
    return np.diff(csr_ptr(values)[csr_ptr(lens)])


def _take_runs(flat: np.ndarray, lens: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Flattened runs with their groups taken in ``order``."""
    start = csr_ptr(lens)[:-1][order]
    return flat[segment_positions(start, start + lens[order])[0]]


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
    """Build (or fetch the memoized, or refresh the shape-valid) plan."""
    cached, store = lists.derived_cache("near_field_plan")
    stats = _plan_stats(lists)
    if cached is not None:
        stats["hits"] += 1
        return cached

    groups, groups_store = lists.derived_cache("near_field_groups", structural=True)
    tab = tree.node_table()
    stats["builds" if groups is None else "refreshes"] += 1
    if groups is None:
        groups = groups_store(_group_targets(tab, lists))
    plan = store(_plan_from_groups(tab, tree.order, groups))
    stats["tiles"] = plan.n_tiles
    return plan


def _group_targets(tab, lists: InteractionLists) -> _PlanGroups:
    """Group the near table's target leaves by source set.

    A row's signature is the bytes of its source ids, sorted: equal
    signatures are equal source sets, and decoding one gives the sources
    in the order the kernel sums them.  All rows are sorted by one sort of
    the table: (row, source id) as one integer orders every row's sources
    and leaves each row in place, so ``base`` comes off again (narrowed
    to 32 bits where they fit, the sort takes half the time).
    """
    near = lists.table("near_sources")
    row_of = tab.row_of
    n_ids = row_of.size
    base = np.repeat(np.arange(near.keys.size) * n_ids, near.counts)
    narrow = np.int32 if near.keys.size * n_ids < 2**31 else np.int64
    srcs = (np.sort((base + near.values).astype(narrow)) - base).tobytes()
    ptr = (8 * csr_ptr(near.counts)).tolist()
    groups: dict[bytes, list[int]] = {}
    for i, t in enumerate(near.keys.tolist()):
        groups.setdefault(srcs[ptr[i] : ptr[i + 1]], []).append(t)
    n_groups = len(groups)
    sig_flat = np.frombuffer(b"".join(groups), dtype=np.int64)
    tgt_flat = np.fromiter(
        chain.from_iterable(groups.values()), dtype=np.int64, count=near.keys.size
    )
    owners = near.owners
    return _PlanGroups(
        sig_rows=row_of[sig_flat],
        sig_len=np.fromiter((len(sig) >> 3 for sig in groups), dtype=np.int64, count=n_groups),
        tgt_rows=row_of[tgt_flat],
        tgt_len=np.fromiter(map(len, groups.values()), dtype=np.int64, count=n_groups),
        self_rows=row_of[owners[owners == near.values]],
    )


def _plan_from_groups(tab, order: np.ndarray, groups: _PlanGroups) -> NearFieldPlan:
    """The plan of ``groups`` at the leaf populations of the node table
    ``tab`` and the body order ``order``: counts, shape order, slices, runs,
    target and self positions, tiles."""
    body_cnt = tab.counts
    sig_len, tgt_len = groups.sig_len, groups.tgt_len
    src_cnt = _run_sums(body_cnt[groups.sig_rows], sig_len)
    tgt_cnt = _run_sums(body_cnt[groups.tgt_rows], tgt_len)

    # shape order: targets exact, sources rounded up to _SRC_ROUND
    by_shape = np.lexsort((tgt_cnt, src_cnt + -src_cnt % _SRC_ROUND))
    tgt_rows = _take_runs(groups.tgt_rows, tgt_len, by_shape)
    sig_len, src_cnt, tgt_cnt = sig_len[by_shape], src_cnt[by_shape], tgt_cnt[by_shape]

    # a group of more than _SLICE_PAIRS pairs becomes ``m`` slices of its
    # target rows in place, as even as they come, each over all of the
    # group's source leaves: slice ``k`` is rows ``k T // m : (k + 1) T // m``
    m = np.maximum(1, -(-tgt_cnt // np.maximum(1, _SLICE_PAIRS // np.maximum(1, src_cnt))))
    grp = np.repeat(np.arange(m.size), m)
    k = np.arange(grp.size) - csr_ptr(m)[grp]
    tgt_ptr = np.append(csr_ptr(tgt_cnt)[grp] + k * tgt_cnt[grp] // m[grp], tgt_cnt.sum())
    sig_rows = _take_runs(groups.sig_rows, groups.sig_len, by_shape[grp])
    sig_len, src_cnt, t_cnt = sig_len[grp], src_cnt[grp], np.diff(tgt_ptr)

    # a group's sources are its signature leaves' runs of ``tree.order``; a
    # source leaf whose bodies follow the previous one's extends that run:
    # the same sources in the same order, and 2-2.4x fewer runs for
    # ``p2p_tiles`` to loop over (each run costs it a branch)
    lo, hi, first = tab.lo[sig_rows], tab.hi[sig_rows], csr_ptr(sig_len)
    start = np.ones(lo.size + 1, dtype=bool)
    start[1:-1] = lo[1:] != hi[:-1]
    start[first] = True
    at = np.flatnonzero(start)  # where runs start, and one past the last

    self_rows = groups.self_rows
    return NearFieldPlan(
        tgt_idx=order[segment_positions(tab.lo[tgt_rows], tab.hi[tgt_rows])[0]],
        tgt_ptr=tgt_ptr,
        order=order,
        src_lo=lo[at[:-1]],
        src_hi=hi[at[1:] - 1],
        run_ptr=np.searchsorted(at, first),
        src_cnt=src_cnt,
        tile_ptr=_tile_boundaries(t_cnt, src_cnt + -src_cnt % _SRC_ROUND),
        self_idx=order[segment_positions(tab.lo[self_rows], tab.hi[self_rows])[0]],
        total_pairs=int((t_cnt * src_cnt).sum()),
        n_bodies=order.size,
    )


def chunk_ranges(weights, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into <= ``n_chunks`` contiguous runs
    of roughly equal total weight: run ``k`` ends where the running total
    first reaches ``(k + 1) / n_chunks`` of the whole (zero-weight tails
    are not split off)."""
    n = len(weights)
    if n == 0:
        return []
    total = np.cumsum(weights, dtype=float)
    n_chunks = max(1, min(n, n_chunks)) if total[-1] > 0.0 else 1
    cuts = np.searchsorted(total, total[-1] * np.arange(1, n_chunks) / n_chunks) + 1
    ends = np.unique(np.append(cuts, n)).tolist()
    return list(zip([0] + ends[:-1], ends))


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

    Targets are *partitioned* (each body belongs to exactly one group or
    slice of one, each group to one tile), so :meth:`tile_range` calls
    write disjoint body rows and may execute concurrently in any order with
    bitwise identical results; :meth:`self_correction` must run after
    every tile (it subtracts from rows the tiles wrote).  Construction
    resolves the plan cache on the calling thread, so the stages are pure
    compute.  :meth:`add_tasks` declares them for the thread engine;
    :func:`evaluate_near_field` runs the same stages, its chunks claimed
    one per lane, and the self-correction after them.
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
        # C-ordered float64: the compiled rows read the strengths in place
        self.q = np.ascontiguousarray(strengths, dtype=float)
        self.want_potential = potential
        self.want_gradient = gradient
        n = tree.n_bodies
        dim = kernel.value_dim
        self.dim = dim
        self.pot = None
        if potential:
            self.pot = np.zeros(n) if dim == 1 else np.zeros((n, dim))
        self.grad = np.zeros((n, 3)) if gradient else None

    def add_tasks(self, g, *, n_chunks: int) -> int:
        """Declare the P2P stage in ``g`` (a
        :class:`~repro.runtime.engine.TaskGraphBuilder`): the tiles cut by
        real pairs into <= ``n_chunks`` contiguous chunks, one task each,
        then the self-correction after all of them; returns its id.  A
        chunk assigns its own target rows, so it is retryable; the
        self-correction subtracts from them, so it is not.
        """
        weights = self.plan.tile_weights
        tile_tasks = [
            g.add(
                partial(self.tile_range, lo, hi),
                label=f"near:t{lo}-{hi}",
                op="P2P",
                applications=int(weights[lo:hi].sum()),
            )
            for lo, hi in chunk_ranges(weights, n_chunks)
        ]
        return g.add(
            self.self_correction,
            label="near:self",
            deps=tuple(tile_tasks),
            op="P2P",
            retryable=False,
        )

    def tile_range(self, lo: int, hi: int) -> None:
        """Tiles ``[lo, hi)`` in one kernel call — the chunk granularity;
        writes these tiles' target rows only."""
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
    """Evaluate the P2P phase: the tiles on every usable CPU, then the
    self-correction.

    Returns ``(pot, grad)`` with the same shapes and semantics as the
    per-leaf near-field loop: ``pot`` is ``(n,)`` for scalar kernels and
    ``(n, value_dim)`` for vector kernels, ``grad`` is ``(n, 3)``; entries
    for bodies outside any near pair stay zero.  The tiles are cut by
    :attr:`NearFieldPlan.tile_weights` into one chunk per lane (the usable
    CPUs shared among the solves in flight,
    :func:`~repro.runtime.engine.claimed_lanes`), run **claimed**
    (:func:`~repro.runtime.engine.run_claimed`: the calling thread and the
    process-wide helpers each take the next unclaimed chunk), and the
    self-correction runs last on the calling thread.  A target row is
    written by one kernel call over its group's sources wherever it runs,
    so the bits are those of one chunk.  ``deadline`` (a
    :class:`repro.util.timing.Deadline`) is checked after the plan build,
    after every chunk the calling thread runs and after the
    self-correction; no helper writes ``pot`` or ``grad`` once this
    returns or raises.
    """
    # imported here: repro.runtime's package init imports the shard
    # workers, which import this module
    from repro.runtime.engine import claimed_lanes, run_claimed

    p = NearFieldPass(
        kernel, tree, lists, strengths, potential=potential, gradient=gradient
    )
    if deadline is not None:
        deadline.check("near-plan")
    chunks = chunk_ranges(p.plan.tile_weights, claimed_lanes())
    run_claimed([partial(p.tile_range, lo, hi) for lo, hi in chunks],
                deadline=deadline, phase="P2P")
    p.self_correction()
    if deadline is not None:
        deadline.check("P2P")
    return p.result()
