"""The per-pair interaction-list construction — the reference the
vectorized, table-producing builder of :mod:`repro.tree.lists` is tested
against (and the baseline ``benchmarks/test_bench_hotpaths.py`` times it
against).

One Python adjacency predicate per candidate pair, dict-of-lists filled
node by node: the pre-vectorization algorithm, unchanged.  The finished
dicts are flattened (:func:`pair_table`) and handed to
:class:`~repro.tree.lists.InteractionLists` as its pair tables, the one
source a lists object has.  Nothing under ``src/`` calls it.

:func:`build_interaction_lists_frontier` is the vectorized builder before
the colleagues were read off the octant table: a batched AABB frontier per
level that stores every V pair.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL, decode_morton
from repro.tree.lists import (
    InteractionLists,
    PairTable,
    _adjacency_columns,
    _adjacent_rows,
    _group_table,
)
from repro.tree.octree import AdaptiveOctree
from repro.util.arrays import csr_ptr, segment_positions, stable_argsort

__all__ = [
    "build_interaction_lists_frontier", "build_interaction_lists_scalar", "pair_table",
]


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


def build_interaction_lists_frontier(tree: AdaptiveOctree) -> InteractionLists:
    """The batched-frontier build the level-by-level one replaced: per
    level, every child against its parent's colleagues' children in one
    broadcast AABB test, colleagues and V materialized together; U, W and
    the fold as :func:`repro.tree.lists.build_interaction_lists` still
    runs them.  Every table bit for bit the shipped builder's."""
    tab = tree.node_table()
    eff_arr = tab.ids
    n = eff_arr.size
    cols = _adjacency_columns(tab.cell, np.int64(1) << (MAX_MORTON_LEVEL - tab.level))
    level, is_leaf, parent_row = tab.level, tab.is_leaf, tab.parent_row
    # effective-child CSR without per-node Python calls: the rows are a
    # preorder of the effective tree, so a stable sort of non-root rows by
    # parent row groups each node's effective children in octant order —
    # identical to ``tree.effective_children``'s ordering.
    nz = np.nonzero(parent_row >= 0)[0]
    child_arr = nz[stable_argsort(parent_row[nz], n)]
    cnt_children = np.bincount(parent_row[nz], minlength=n)
    child_lo, child_hi = csr_ptr(cnt_children)[:-1], np.cumsum(cnt_children)

    # ---------------------------------------------------- colleagues and V
    # Level-synchronous sweep: all children of one parent share a candidate
    # batch (children of the parent's colleagues), so each level is one
    # flattened cross product + one broadcast adjacency test.  Colleague/V
    # results live in one contiguous CSR per level, indexed by each row's
    # position within its level (a node's parent is always one level up,
    # so a parent's colleague pool is a CSR segment of the previous level).
    root_row = 0  # preorder
    max_level = int(level.max(initial=0))
    lev_rows = [np.array([root_row], dtype=np.int64)]
    lev_coll_vals = [np.array([root_row], dtype=np.int64)]
    lev_coll_ptr = [np.array([0, 1], dtype=np.int64)]
    lev_v_vals = [np.empty(0, dtype=np.int64)]
    lev_v_ptr = [np.array([0, 0], dtype=np.int64)]
    pos_in_level = np.zeros(n, dtype=np.int64)
    for lvl in range(1, max_level + 1):
        parents = np.unique(parent_row[np.nonzero(level == lvl)[0]])
        # candidate pool per parent: children of the parent's colleagues
        ptr, at = lev_coll_ptr[lvl - 1], pos_in_level[parents]
        pos, pc_cnt = segment_positions(ptr[at], ptr[at + 1])
        pc = lev_coll_vals[lvl - 1][pos]
        pos, cand_cnt = segment_positions(child_lo[pc], child_hi[pc])
        cand_pool = child_arr[pos]
        pool_len = np.zeros(len(parents), dtype=np.int64)
        if pc.size:
            np.add.at(pool_len, np.repeat(np.arange(len(parents)), pc_cnt), cand_cnt)
        # cross product: every child of parent p against p's whole pool
        pos, k_p = segment_positions(child_lo[parents], child_hi[parents])
        children = child_arr[pos]
        pos_in_level[children] = np.arange(children.size, dtype=np.int64)
        m_c = np.repeat(pool_len, k_p)  # pool size per child
        owners = np.repeat(children, m_c)
        pool_start = np.cumsum(pool_len) - pool_len
        starts = np.cumsum(m_c) - m_c  # each child's segment of the flat candidates
        # candidate j of a segment is pool entry ``pool_start[parent] + j``
        shift = np.repeat(np.repeat(pool_start, k_p) - starts, m_c)
        cands = cand_pool[np.arange(shift.size, dtype=np.int64) + shift]
        adj = _adjacent_rows(cols, cands, owners)
        # owners run in contiguous segments, so the filtered candidates
        # stay segment-grouped: the level CSR is two masked gathers, its
        # row lengths the per-segment hit counts
        hits = np.concatenate(([0], np.cumsum(adj)))
        coll_cnt = hits[starts + m_c] - hits[starts]
        lev_rows.append(children)
        lev_coll_vals.append(cands[adj])
        lev_coll_ptr.append(csr_ptr(coll_cnt))
        lev_v_vals.append(cands[~adj])
        lev_v_ptr.append(csr_ptr(m_c - coll_cnt))
    # colleague/V tables: level-major key order, candidate order within a row
    owners_all = eff_arr[np.concatenate(lev_rows)]
    tables = {
        "colleagues": PairTable(
            owners_all,
            np.concatenate([np.diff(p) for p in lev_coll_ptr]),
            eff_arr[np.concatenate(lev_coll_vals)],
        ),
        "v_list": PairTable(
            owners_all,
            np.concatenate([np.diff(p) for p in lev_v_ptr]),
            eff_arr[np.concatenate(lev_v_vals)],
        ),
    }

    leaf_rows = np.nonzero(is_leaf)[0]

    # ------------------------------------------------- U list and W pairs
    # One shared frontier serves both.  An adjacent leaf l of leaf b is
    # either a *leaf colleague* of b (same level, already classified — no
    # extra test needed), or the pair (b, l) shows up exactly once in the
    # descent below the deeper side's colleagues.  So we seed a frontier
    # with the children of each leaf's *internal* colleagues and classify
    # each candidate once: non-adjacent -> a W pair of b (folded below),
    # adjacent leaf -> deeper U partner (recorded in both directions),
    # adjacent internal -> descend.  This halves the adjacency tests of the classical
    # per-leaf root descent: every unordered U pair is tested once.
    u_own: list[np.ndarray] = []
    u_val: list[np.ndarray] = []
    sc_parts: list[np.ndarray] = []
    sc_own_parts: list[np.ndarray] = []
    for lvl in range(max_level + 1):
        lrows = lev_rows[lvl][is_leaf[lev_rows[lvl]]]
        if not lrows.size:
            continue
        ptr, at = lev_coll_ptr[lvl], pos_in_level[lrows]
        pos, ccnt = segment_positions(ptr[at], ptr[at + 1])
        cvals = lev_coll_vals[lvl][pos]
        cown = np.repeat(lrows, ccnt)
        leaf_coll = is_leaf[cvals]  # same-level adjacent leaves, incl. self
        u_own.append(cown[leaf_coll])
        u_val.append(cvals[leaf_coll])
        sc_parts.append(cvals[~leaf_coll])
        sc_own_parts.append(cown[~leaf_coll])
    sc = np.concatenate(sc_parts) if sc_parts else np.empty(0, dtype=np.int64)
    sc_own = np.concatenate(sc_own_parts) if sc_own_parts else np.empty(0, dtype=np.int64)
    pos, cnt = segment_positions(child_lo[sc], child_hi[sc])
    cand = child_arr[pos]
    own = np.repeat(sc_own, cnt)
    w_own: list[np.ndarray] = []
    w_val: list[np.ndarray] = []
    while own.size:
        adj = _adjacent_rows(cols, cand, own)
        w_own.append(own[~adj])
        w_val.append(cand[~adj])
        own, cand = own[adj], cand[adj]
        leaf_hit = is_leaf[cand]
        # deeper adjacent leaf: a U pair in both directions
        u_own.append(own[leaf_hit])
        u_val.append(cand[leaf_hit])
        u_own.append(cand[leaf_hit])
        u_val.append(own[leaf_hit])
        own, cand = own[~leaf_hit], cand[~leaf_hit]
        pos, cnt = segment_positions(child_lo[cand], child_hi[cand])
        own, cand = np.repeat(own, cnt), child_arr[pos]
    uo = np.concatenate(u_own)
    uv = np.concatenate(u_val)
    wo = np.concatenate(w_own) if w_own else np.empty(0, dtype=np.int64)
    wv = np.concatenate(w_val) if w_val else np.empty(0, dtype=np.int64)

    # ------------------------------------------------ the fold: near field
    # Expand every W pair (b, w) to w's leaf descendants t.  Each expanded
    # pair covers *both* folded directions at once: t becomes a P2P source
    # of b (the W fold) and b a P2P source of t (the X fold pushed down to
    # t's leaves), so the whole near field is U pairs + the symmetric
    # closure of the expansion.
    own, cand = wo, wv
    ext_own: list[np.ndarray] = []
    ext_leaf: list[np.ndarray] = []
    while cand.size:
        leaf_hit = is_leaf[cand]
        ext_own.append(own[leaf_hit])
        ext_leaf.append(cand[leaf_hit])
        own, cand = own[~leaf_hit], cand[~leaf_hit]
        pos, cnt = segment_positions(child_lo[cand], child_hi[cand])
        own, cand = np.repeat(own, cnt), child_arr[pos]
    none = np.empty(0, dtype=np.int64)
    eo = np.concatenate(ext_own) if ext_own else none
    el = np.concatenate(ext_leaf) if ext_leaf else none
    tables["u_list"] = _group_table(uo, uv, leaf_rows, eff_arr)
    # the grouping sort is stable and the U pairs come first in the
    # concatenated input, so each leaf's U list is exactly the prefix of
    # its near-source list
    tables["near_sources"] = _group_table(
        np.concatenate((uo, eo, el)), np.concatenate((uv, el, eo)), leaf_rows, eff_arr
    )
    return InteractionLists(tree, tables)
