"""The per-pair interaction-list construction — the reference the
vectorized, table-producing builder of :mod:`repro.tree.lists` is tested
against (and the baseline ``benchmarks/test_bench_hotpaths.py`` times it
against).

One Python adjacency predicate per candidate pair, dict-of-lists filled
node by node: the pre-vectorization algorithm, unchanged.  The finished
dicts are flattened (:func:`pair_table`) and handed to
:class:`~repro.tree.lists.InteractionLists` as its pair tables, the one
source a lists object has.  Nothing under ``src/`` calls it.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL, decode_morton
from repro.tree.lists import InteractionLists, PairTable
from repro.tree.octree import AdaptiveOctree

__all__ = ["build_interaction_lists_scalar", "pair_table"]


def pair_table(d: dict[int, list[int]]) -> PairTable:
    """Flatten a ``{owner: [ids]}`` dict, in its key order."""
    n = len(d)
    counts = np.fromiter(map(len, d.values()), dtype=np.int64, count=n)
    return PairTable(
        keys=np.fromiter(d, dtype=np.int64, count=n),
        counts=counts,
        values=np.fromiter(
            chain.from_iterable(d.values()), dtype=np.int64, count=int(counts.sum())
        ),
    )


def _fold(tree, u_list, w_list, leaves, leaf_set) -> dict[int, list[int]]:
    """The near-field sets: U, then W and its dual X folded into P2P."""
    x_list: dict[int, list[int]] = {}
    for x, ws in w_list.items():
        for wnode in ws:
            x_list.setdefault(wnode, []).append(x)

    near = {b: list(u_list[b]) for b in leaves}
    # W entries become their leaf descendants (P2P sources)
    for b in leaves:
        for wnode in w_list[b]:
            near[b].extend(_leaf_descendants(tree, wnode, leaf_set))
    # X entries are pushed down to every leaf under the receiving node
    for recv, xs in x_list.items():
        for t in _leaf_descendants(tree, recv, leaf_set):
            near[t].extend(xs)
    return near


def build_interaction_lists_scalar(tree: AdaptiveOctree) -> InteractionLists:
    """Reference per-pair construction (the pre-vectorization algorithm).

    Kept as the equivalence oracle for the vectorized builder and as the
    baseline the hot-path benchmarks measure speedups against.
    """
    colleagues: dict[int, list[int]] = {}
    v_list: dict[int, list[int]] = {}
    u_list: dict[int, list[int]] = {}
    w_list: dict[int, list[int]] = {}
    nodes = tree.nodes
    eff = tree.effective_nodes()
    coords = _integer_coords(tree, eff)

    def adjacent(a: int, b: int) -> bool:
        ax0, ay0, az0, ax1, ay1, az1 = coords[a]
        bx0, by0, bz0, bx1, by1, bz1 = coords[b]
        return (
            ax1 >= bx0 and bx1 >= ax0
            and ay1 >= by0 and by1 >= ay0
            and az1 >= bz0 and bz1 >= az0
        )

    # ---------------------------------------------------- colleagues and V
    colleagues[0] = [0]
    v_list[0] = []
    for nid in eff:
        if nid == 0:
            continue
        parent = nodes[nid].parent
        cands: list[int] = []
        for pc in colleagues[parent]:
            cands.extend(tree.effective_children(pc))
        coll, v = [], []
        for c in cands:
            if adjacent(c, nid):
                coll.append(c)
            else:
                v.append(c)
        colleagues[nid] = coll
        v_list[nid] = v

    leaves = tree.leaves()
    leaf_set = set(leaves)

    # -------------------------------------------------------------- U lists
    for b in leaves:
        u: list[int] = []
        stack = [0]
        while stack:
            cur = stack.pop()
            if not adjacent(cur, b):
                continue
            if nodes[cur].is_leaf:
                u.append(cur)
            else:
                stack.extend(tree.effective_children(cur))
        u_list[b] = u

    # -------------------------------------------------------------- W lists
    for b in leaves:
        w: list[int] = []
        for c in colleagues[b]:
            if c == b or nodes[c].is_leaf:
                continue
            stack = list(tree.effective_children(c))
            while stack:
                cur = stack.pop()
                if adjacent(cur, b):
                    if not nodes[cur].is_leaf:
                        stack.extend(tree.effective_children(cur))
                    # adjacent leaves are already in U(b)
                else:
                    w.append(cur)
        w_list[b] = w

    lists = {
        "colleagues": colleagues,
        "v_list": v_list,
        "u_list": u_list,
        "near_sources": _fold(tree, u_list, w_list, leaves, leaf_set),
    }
    return InteractionLists(tree, {name: pair_table(d) for name, d in lists.items()})


def _leaf_descendants(tree: AdaptiveOctree, nid: int, leaf_set: set[int]) -> list[int]:
    if nid in leaf_set:
        return [nid]
    out: list[int] = []
    stack = list(tree.effective_children(nid))
    while stack:
        cur = stack.pop()
        if tree.nodes[cur].is_leaf:
            out.append(cur)
        else:
            stack.extend(tree.effective_children(cur))
    return out


def _integer_coords(tree: AdaptiveOctree, eff: list[int]) -> dict[int, tuple[int, int, int, int, int, int]]:
    """Exact integer cell bounds on the finest Morton grid, as Python ints.

    Returns per-node (x0, y0, z0, x1, y1, z1) with the upper bound
    exclusive; two cells touch iff a.hi >= b.lo and b.hi >= a.lo on every
    axis.  Decoded from each node's own ``key_lo`` — not from the tree's
    node table, which is part of what this oracle checks.
    """
    keys = np.array([tree.nodes[n].key_lo for n in eff], dtype=np.uint64)
    lows = np.stack(decode_morton(keys), axis=1).tolist()
    out = {}
    for nid, lo in zip(eff, lows):
        width = 1 << (MAX_MORTON_LEVEL - tree.nodes[nid].level)
        out[nid] = (*lo, *(c + width for c in lo))
    return out
