"""Leaf capacity S for a one-shot solve, from a census of its own bodies.

The leaf capacity moves work between the near field (pairs grow with S)
and the far field plus tree construction (nodes shrink with S), and where
the two balance depends on the bodies, the expansion order and the kernel.
:func:`choose_leaf_size` prices every S of the ladder :data:`LEAF_SIZES`
with a frozen linear cost model and returns the cheapest, the smaller S on
a tie.  No tree is built: :func:`census` reads, from the bodies' sorted
Morton keys alone, the node, leaf and near-pair counts the tree
``AdaptiveOctree(points, S)`` and its lists would have at every S —
exactly.

One table serves the whole ladder: the cells of more than ``LEAF_SIZES[0]``
bodies above ``max_level`` (the cells some S splits), each with its body
count P, its children's counts and the rows of the 27 same-level cells
around it.  Bodies ``i .. i + s`` share their level-``l`` cell iff every
adjacent pair among them does, so the table's cells are, level by level,
the runs of ``s + 1``-body windows whose shallowest pair still shares level
``l``.  At a given S the tree splits exactly the table cells with ``P > S``;
its nodes are the root and their children, its leaves the unsplit nodes.

Near pairs: under the lists two leaves are near iff, at the coarser
one's level, the finer one's cell (or its ancestor there) is or borders the
coarser one.  Seen from node cells at one level, a leaf pairs with itself,
and two bordering nodes pair ``2 c c'`` times unless both are split.  The
bordering node pairs under two table cells p, q are the bilinear form
``c_p . M c_q`` of their children's counts (M: which children border across
the offset from p to q); the both-split pairs are bordering table cells.
Each term holds on a run of the ladder.

The coefficients are one least-squares fit per kernel of served solve
walls (serial, warm operators) on :func:`regressors`, over n in {500, 2000,
10k, 20k, 50k} x order {3, 5} x the ladder, frozen so that the choice — and
with it every served result — is a pure function of the request.
``benchmarks/leafsize_sweep.py`` re-measures and re-fits; EXPERIMENTS.md
holds the sweep, the fit and the regret table.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from repro.geometry.box import Box
from repro.geometry.morton import MAX_MORTON_LEVEL, morton_keys

__all__ = ["LEAF_SIZES", "TreeCensus", "census", "choose_leaf_size", "regressors"]

#: the leaf capacities a served one-shot solve chooses from (16 << i)
LEAF_SIZES = tuple(16 << i for i in range(6))

#: seconds per regressor of :func:`regressors`, per kernel
_COEFFICIENTS = {
    "laplace": (2.229e-09, 2.148e-05, 4.705e-07, 3.011e-03),
    "stokeslet": (2.485e-09, 2.070e-05, 1.088e-06, 2.978e-03),
}

_MAX_LEVEL = MAX_MORTON_LEVEL - 1  # AdaptiveOctree's default max_level
_KEY_BITS = np.uint64(3 * MAX_MORTON_LEVEL)
_OCTANT_EDGES = np.arange(9, dtype=np.uint64)
#: the 27 offsets (dx, dy, dz) around a cell, in [dz, dy, dx] order (dx fastest)
_OFFSETS = np.array([(dx, dy, dz) for dz, dy, dx in itertools.product((-1, 0, 1), repeat=3)])


def _border_tables():
    """Per child octant o (x in bit 0) and offset d: the slot, among the 27
    around the child's parent, of the parent of the child's neighbour at d,
    and that neighbour's octant; and per parent offset d, which children of
    the cell border which children of the neighbour there (8 x 8)."""
    bits = np.arange(8)[:, None] >> np.arange(3) & 1  # octant -> (x, y, z) bit
    pos = bits[:, None, :] + _OFFSETS  # (octant, offset, axis): -1 .. 2
    slot = (pos // 2 + 1) @ np.array([1, 3, 9])
    child = (pos % 2) @ np.array([1, 2, 4])
    # along one axis, children i and j border across a parent step of d
    # iff |2 d + j - i| <= 1
    step = 2 * _OFFSETS[:, None, None, :] + bits[None, None, :, :] - bits[None, :, None, :]
    border = (np.abs(step) <= 1).all(-1).astype(float)  # (offset, i, j)
    tables = slot, child, border.transpose(1, 0, 2).reshape(8, 27 * 8)
    for table in tables:
        table.flags.writeable = False  # every solver thread reads them
    return tables


_SLOT, _CHILD, _BORDER = _border_tables()


class TreeCensus(NamedTuple):
    """What the census reads for one S: the tree's node and leaf counts and
    its near-field pairs (``op_counts()["P2P"]`` of its lists)."""

    nodes: int
    leaves: int
    near_pairs: int


def census(keys: np.ndarray) -> dict[int, TreeCensus]:
    """``{S: TreeCensus}`` of the tree ``AdaptiveOctree(points, S)`` would
    build, for every S of :data:`LEAF_SIZES`, without building it.

    ``keys`` are the bodies' Morton keys over the tree's root box
    (:func:`~repro.geometry.morton.morton_keys`), in any order.
    """
    keys = np.sort(keys)
    n = int(keys.size)
    if n <= LEAF_SIZES[0]:
        return {S: TreeCensus(1, 1, n * n) for S in LEAF_SIZES}
    level, counts, children, around = _table(keys)
    until = _rung(counts)  # a table cell is split for the S below this rung
    split = _runs(None, until, np.ones(until.size))
    nodes = 1 + _runs(None, until, (children > 0).sum(1).astype(float))
    near = _near_pairs(level, counts, children, around, until)
    return {
        S: TreeCensus(int(nodes[i]), int(nodes[i] - split[i]), int(near[i]) if n > S else n * n)
        for i, S in enumerate(LEAF_SIZES)
    }


def _near_pairs(level, counts, children, around, until) -> np.ndarray:
    """Near pairs per S of the ladder, over the leaves below the root."""
    c = children.astype(float)
    # a leaf pairs with itself: a child x of row p, from c_x <= S (any S at
    # max_level, where nothing splits) while p is split
    x = np.flatnonzero(children)
    size = np.take(c, x)
    lo = _rung(size)
    lo[np.take(level, x // 8) + 1 >= _MAX_LEVEL] = 0
    # bordering nodes under rows p, q, ordered, while both are split (less
    # the pairs (x, x)), and less those that are both split themselves:
    # bordering table cells
    e = np.flatnonzero(around >= 0)
    p, q = e // 27, np.take(around, e)
    # einsum, not `@`: OpenBLAS threads the product and, on a loaded host,
    # waits for cores (8 ms against 0.45 ms at n = 20k); the sums are exact
    border = np.take(np.einsum("pj,jk->pk", c, _BORDER).reshape(-1, 8), e, axis=0)
    pairs = np.einsum("ej,ej->e", border, np.take(c, q, axis=0))
    c_p, c_q = np.take(counts, p), np.take(counts, q)
    both = (c_p * c_q).astype(float)
    both[e % 27 == 13] = 0.0
    near = _runs(lo, np.take(until, x // 8), size * size)
    near += _runs(None, np.minimum(np.take(until, p), np.take(until, q)), pairs)
    near -= _runs(None, _rung(np.minimum(c_p, c_q)), both)
    near -= _runs(None, until, np.einsum("pj,pj->p", c, c))
    return np.rint(near)


def regressors(counts: TreeCensus, order: int) -> tuple[float, ...]:
    """What a solve's wall is linear in: its near pairs (P2P), leaves (the
    near plan's groups), nodes x expansion coefficients (tree, lists and
    the far sweep) and a constant (the bodies' own P2M / L2P, the request:
    the same at every S)."""
    nc = (order + 1) * (order + 2) * (order + 3) // 6
    return (float(counts.near_pairs), float(counts.leaves), float(counts.nodes * nc), 1.0)


def choose_leaf_size(points: np.ndarray, root_box: Box, order: int, kernel: str) -> int:
    """The S of :data:`LEAF_SIZES` the frozen cost model prices lowest for
    a ``kernel`` solve at expansion ``order`` over ``points`` in a tree of
    root ``root_box`` (see :func:`census`); the smaller S on a tie."""
    coef = np.array(_COEFFICIENTS[kernel])
    counts = census(morton_keys(points, root_box.low, root_box.size))
    cost = [float(np.dot(coef, regressors(counts[S], order))) for S in LEAF_SIZES]
    return LEAF_SIZES[int(np.argmin(cost))]


def _rung(count) -> np.ndarray:
    """Index of the first S of :data:`LEAF_SIZES` (16 << i) that is at
    least ``count``: the bit length of ``count - 1``, less 4, clipped."""
    bits = np.frexp(np.asarray(count) - 1.0)[1]
    return np.clip(bits - 4, 0, len(LEAF_SIZES))


def _runs(lo, hi, weight) -> np.ndarray:
    """Per rung of the ladder, the sum of ``weight`` over the terms with
    ``lo <= rung < hi`` (``lo=None``: from the first rung)."""
    bins = len(LEAF_SIZES) + 1
    runs = -np.bincount(hi if lo is None else np.maximum(lo, hi), weight, bins)
    if lo is None:
        runs[0] += weight.sum()
    else:
        runs += np.bincount(lo, weight, bins)
    return np.cumsum(runs)[:-1]


def _shared_levels(keys: np.ndarray) -> np.ndarray:
    """Per adjacent pair of sorted keys, the deepest level whose cell holds
    both: ``(63 - bit length of their xor) // 3``."""
    xor = keys[1:] ^ keys[:-1]
    high = xor >> np.uint64(11)  # below 2**52: exact in a double
    bits = np.where(high > 0, np.frexp(high)[1] + 11, np.frexp(xor & np.uint64(2047))[1])
    return (3 * MAX_MORTON_LEVEL - bits) // 3


def _table(keys: np.ndarray):
    """The cells of more than ``LEAF_SIZES[0]`` bodies above the tree's
    ``max_level``, root first, level by level in Morton order: ``(levels,
    counts, children, around)`` — body counts per cell and per child
    octant, and the rows of the 27 same-level cells around each
    (``_OFFSETS`` order; -1 for a cell not in the table)."""
    run, width = _shared_levels(keys), 1
    while width < LEAF_SIZES[0]:  # over windows of LEAF_SIZES[0] + 1 bodies
        run = np.minimum(run[:-width], run[width:])
        width *= 2
    shared = np.minimum(run, _MAX_LEVEL - 1)
    # window i opens the cells of the levels its predecessor does not share
    prev = np.concatenate([[-1], shared[:-1]])
    rise = np.maximum(shared - prev, 0)
    level = np.repeat(prev + 1 - (np.cumsum(rise) - rise), rise) + np.arange(rise.sum())
    shift = _KEY_BITS - np.uint64(3) * level.astype(np.uint64)
    cell = keys[np.repeat(np.arange(shared.size), rise)] >> shift
    # one code space, level-major: level l after the (8**l - 1) / 7 cells above
    offset = (np.uint64(1) << (np.uint64(3) * level.astype(np.uint64))) // np.uint64(7)
    order = np.argsort(offset + cell)
    cell, level, shift, offset = cell[order], level[order], shift[order], offset[order]
    edges = (cell[:, None] * np.uint64(8) + _OCTANT_EDGES) << (shift - np.uint64(3))[:, None]
    children = np.diff(np.searchsorted(keys, edges), axis=1)
    # the neighbours of a cell are children of its parent's neighbours
    parent = np.searchsorted(offset + cell, (offset >> np.uint64(3)) + (cell >> np.uint64(3)))
    octant = (cell & np.uint64(7)).astype(np.int64)
    child_row = np.full((cell.size + 1, 8), -1)  # row -1: no cell
    child_row[parent[1:], octant[1:]] = np.arange(1, cell.size)
    slot, child = parent[:, None] * 27 + _SLOT[octant], _CHILD[octant]
    around = np.full((cell.size, 27), -1)
    around[0, 13] = 0
    starts = np.searchsorted(level, np.arange(level[-1] + 2)).tolist()
    for lo, hi in zip(starts[1:-1], starts[2:]):
        up = np.take(around, slot[lo:hi])
        around[lo:hi] = np.take(child_row, up * 8 + child[lo:hi])  # -1: the last row
    return level, children.sum(1), children, around
