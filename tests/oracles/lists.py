"""The per-pair interaction-list construction — the reference the
vectorized, table-producing builder of :mod:`repro.tree.lists` is tested
against (and the baseline ``benchmarks/test_bench_hotpaths.py`` times it
against).

One Python adjacency predicate per candidate pair, dict-of-lists filled
node by node: the pre-vectorization algorithm, unchanged.  It fills the
dict views of a hand-built :class:`~repro.tree.lists.InteractionLists`
(which has no pair tables until a consumer flattens the dicts).  Nothing
under ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL, decode_morton
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["build_interaction_lists_scalar"]


def _finish_lists(tree, il, leaves, leaf_set, folded) -> None:
    """X duality, the pair provenance repair needs, and the folded near-field sets."""
    w_own: list[int] = []
    w_val: list[int] = []
    for b, ws in il.w_list.items():
        w_own.extend([b] * len(ws))
        w_val.extend(ws)
    il._w_pairs = (
        np.asarray(w_own, dtype=np.int64),
        np.asarray(w_val, dtype=np.int64),
    )
    il.x_list = {}
    for x, ws in il.w_list.items():
        for wnode in ws:
            il.x_list.setdefault(wnode, []).append(x)

    for b in leaves:
        il.near_sources[b] = list(il.u_list[b])
    if folded:
        fold_own: list[int] = []
        fold_leaf: list[int] = []
        # W entries become their leaf descendants (P2P sources)
        for b in leaves:
            extra: list[int] = []
            for wnode in il.w_list[b]:
                extra.extend(_leaf_descendants(tree, wnode, leaf_set))
            il.near_sources[b].extend(extra)
            fold_own.extend([b] * len(extra))
            fold_leaf.extend(extra)
        # X entries are pushed down to every leaf under the receiving node
        for recv, xs in il.x_list.items():
            for t in _leaf_descendants(tree, recv, leaf_set):
                il.near_sources[t].extend(xs)
        il._fold_pairs = (
            np.asarray(fold_own, dtype=np.int64),
            np.asarray(fold_leaf, dtype=np.int64),
        )
        # folded mode does not use M2P/P2L
        il.w_list = {b: [] for b in leaves}
        il.x_list = {}


def build_interaction_lists_scalar(
    tree: AdaptiveOctree, *, folded: bool = True
) -> InteractionLists:
    """Reference per-pair construction (the pre-vectorization algorithm).

    Kept as the equivalence oracle for the vectorized builder and as the
    baseline the hot-path benchmarks measure speedups against.
    """
    il = InteractionLists(tree=tree, folded=folded)
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
    il.colleagues[0] = [0]
    il.v_list[0] = []
    for nid in eff:
        if nid == 0:
            continue
        parent = nodes[nid].parent
        cands: list[int] = []
        for pc in il.colleagues[parent]:
            cands.extend(tree.effective_children(pc))
        coll, v = [], []
        for c in cands:
            if adjacent(c, nid):
                coll.append(c)
            else:
                v.append(c)
        il.colleagues[nid] = coll
        il.v_list[nid] = v

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
        il.u_list[b] = u

    # -------------------------------------------------------------- W lists
    for b in leaves:
        w: list[int] = []
        for c in il.colleagues[b]:
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
        il.w_list[b] = w

    _finish_lists(tree, il, leaves, leaf_set, folded)
    return il


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
