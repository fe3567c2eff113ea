"""Adaptive FMM interaction lists (U/V/W/X of Cheng–Greengard–Rokhlin).

For the *adaptive* tree the set of nodes involved in each operation is
specific to the tree structure (the paper's §I-C); the classical lists are:

* ``U(b)`` — leaves adjacent to leaf b (any level, including b): P2P.
* ``V(b)`` — same-level children of b's parent's colleagues that are not
  adjacent to b: M2L.
* ``W(b)`` — descendants w of b's colleagues whose parent is adjacent to
  leaf b but which are not themselves adjacent to b: M2P (w's multipole
  evaluated directly at b's bodies).
* ``X(b)`` — dual of W (x ∈ X(b) iff b ∈ W(x)): P2L (x's bodies enter b's
  local expansion directly).

The paper folds the W/X work into GPU P2P ("near-field = all pairs not
well separated"); ``folded=True`` reproduces that: W entries are replaced
by their leaf descendants and X entries are pushed down to b's leaf
descendants, so the near field becomes pure leaf-leaf pairs and the far
field pure M2L — at the cost of extra direct interactions.

Adjacency is decided in exact integer (Morton grid) arithmetic, so lists
are immune to floating-point drift from repeated box halving.

Construction is fully vectorized and arrays all the way: the builder
reads the tree's :class:`~repro.tree.octree.NodeTable` (per-node integer
AABBs in one ``(n_eff, 6)`` int64 array), runs every traversal
(colleague/V split per level, the U descent from the root, the W descent
from colleagues) as a *batched frontier* — all candidate pairs of a round
are classified with one broadcast overlap test instead of a Python
predicate per pair — and hands back one :class:`PairTable` per list
family: ``(owner, value)`` node-id pairs, owner-grouped in the order the
dict attributes always had.  The far-field geometry, the near-field plan
and :meth:`InteractionLists.op_counts` gather from the tables; the
``{node id: [node ids]}`` dicts are *views* boxed from them on first read,
for the readers that want Python objects (the modelled machine:
:mod:`repro.runtime.tasks`, :mod:`repro.gpu.partition`, :mod:`repro.cluster`,
the fine-grained optimizer, the diagnostics).  A tree whose shape changed
gets a fresh build (:class:`~repro.tree.cache.ListCache`); lists are never
edited in place.  The original per-pair construction is the test-side
oracle ``tests/oracles/lists.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.tree.octree import AdaptiveOctree, NodeTable
from repro.util.arrays import csr_ptr, stable_argsort

__all__ = ["FAMILIES", "InteractionLists", "PairTable", "build_interaction_lists"]


#: the list families, in the order a build produces them
FAMILIES = ("colleagues", "v_list", "u_list", "w_list", "x_list", "near_sources")


@dataclass(frozen=True)
class PairTable:
    """One list family as arrays: ``keys[i]`` owns ``counts[i]`` entries of
    ``values``, back to back — all node ids.

    ``keys`` is the family's dict-view key order and includes owners with
    no entries; :attr:`owners` expands it to one owner per pair, so
    ``(owners, values)`` is the flattened dict.
    """

    keys: np.ndarray
    counts: np.ndarray
    values: np.ndarray

    @property
    def owners(self) -> np.ndarray:
        return np.repeat(self.keys, self.counts)

    def to_dict(self) -> dict[int, list[int]]:
        """The dict view: one bulk ``tolist`` and a pointer-copy slice per key."""
        values = self.values.tolist()
        offs = csr_ptr(self.counts).tolist()
        return {
            k: values[lo:hi] for k, lo, hi in zip(self.keys.tolist(), offs[:-1], offs[1:])
        }

    @classmethod
    def from_dict(cls, d: dict[int, list[int]]) -> "PairTable":
        """Flatten a dict view (the producer for hand-built lists)."""
        n = len(d)
        counts = np.fromiter(map(len, d.values()), dtype=np.int64, count=n)
        return cls(
            keys=np.fromiter(d, dtype=np.int64, count=n),
            counts=counts,
            values=np.fromiter(
                chain.from_iterable(d.values()), dtype=np.int64, count=int(counts.sum())
            ),
        )


def _dict_view(name: str) -> property:
    def get(self) -> dict[int, list[int]]:
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = self._tables[name].to_dict()
        return view

    def set_(self, value: dict[int, list[int]]) -> None:
        self._views[name] = value
        self._tables.pop(name, None)

    return property(get, set_, doc=f"``{name}`` as ``{{owner id: [ids]}}`` (lazy view).")


class InteractionLists:
    """All interaction lists of one effective tree configuration.

    A build's product is one :class:`PairTable` per family (:meth:`table`);
    the array consumers — far-field geometry, near-field plan,
    :meth:`op_counts` — gather from those.  The six dict attributes
    (per-node lists keyed by node id, only effective nodes appear;
    ``u_list`` / ``w_list`` / ``near_sources`` hold leaves only, the latter
    including the leaf itself) are *views*, boxed from the tables on first
    read, for the modelled machine.  A lists object is never changed once
    built; whoever edits a view by hand (a test, the oracle) calls
    :meth:`drop_tables` afterwards, which makes the dicts the source and
    lets the next array consumer re-flatten them.
    """

    colleagues = _dict_view("colleagues")
    v_list = _dict_view("v_list")
    u_list = _dict_view("u_list")
    w_list = _dict_view("w_list")
    x_list = _dict_view("x_list")
    near_sources = _dict_view("near_sources")

    def __init__(
        self,
        tree: AdaptiveOctree,
        folded: bool,
        tables: dict[str, PairTable] | None = None,
    ) -> None:
        self.tree = tree
        self.folded = folded
        self._tables: dict[str, PairTable] = dict(tables or {})
        #: without tables (a hand-built instance) the empty dicts are the source
        self._views: dict[str, dict] = {} if tables else {name: {} for name in FAMILIES}
        #: derived data memoized against the tree's ``generation`` stamp
        #: (op counts, near-field work items / evaluation plans); body counts
        #: change under refit while the lists themselves stay valid, so derived
        #: quantities carry their own finer-grained stamp.
        self._derived: dict = {}

    # --------------------------------------------------------------- tables
    def table(self, name: str) -> PairTable:
        """The :class:`PairTable` of family ``name`` (flattened from its
        dict view when a hand edit dropped it)."""
        tab = self._tables.get(name)
        if tab is None:
            tab = self._tables[name] = PairTable.from_dict(self._views[name])
        return tab

    def materialized(self, name: str) -> bool:
        """Whether the dict view of family ``name`` has been boxed."""
        return name in self._views

    def drop_tables(self) -> None:
        """Make the dict views the source of truth (call after editing one)."""
        for name in FAMILIES:
            getattr(self, name)
        self._tables.clear()

    # ------------------------------------------------------------- counting
    def interactions_of_leaf(self, t: int) -> int:
        """Paper §III-C: Interactions(t) = p_t * sum_{i in IL(t)} p_i."""
        tree = self.tree
        p_t = tree.nodes[t].count
        return p_t * sum(tree.nodes[s].count for s in self.near_sources.get(t, ()))

    def total_near_interactions(self) -> int:
        """``sum_t Interactions(t)``, as gathers over the near table."""
        near = self.table("near_sources")
        tab = self.tree.node_table()
        cnt = tab.counts
        per_target = np.repeat(cnt[tab.row_of[near.keys]], near.counts)
        return int(per_target @ cnt[tab.row_of[near.values]])

    def derived_cache(self, kind: str, *, structural: bool = False):
        """Fetch a derived-data cache slot, invalidated by tree mutation.

        Returns ``(value, store)`` where ``value`` is the cached entry for
        ``kind`` if it was computed at the tree's current ``generation``
        (else ``None``) and ``store(v)`` memoizes a fresh value.

        ``structural=True`` stamps the slot with ``structure_generation``
        instead: the entry survives refits (body motion) and is
        invalidated only by tree surgery.  Use it for geometry-only
        artifacts — displacement classes, translation operators — that
        depend solely on the effective tree *shape*.
        """
        attr = "structure_generation" if structural else "generation"
        gen = getattr(self.tree, attr, None)
        entry = self._derived.get(kind)
        value = entry[2] if (entry is not None and entry[1] == gen) else None

        def store(v):
            self._derived[kind] = (attr, gen, v)
            return v

        return value, store

    def op_counts(self, n_coeffs: int | None = None) -> dict[str, int]:
        """Number of applications of each FMM operation for this tree.

        Counts follow the paper's cost model: the count for an operation is
        the number of times it is applied, in units whose per-application
        cost is shape-independent so observed coefficients transfer between
        trees (the paper: cost "expressed in terms of the number of bodies
        in a leaf node"): per *body* for P2M/L2P, per parent<->child shift
        for M2M/L2L, per node pair for M2L, per body-pair for P2P, per
        (node, body) product for M2P/P2L.

        The result is memoized against the tree's ``generation`` (counts
        depend on per-node populations, which refit changes); a copy is
        returned so callers may mutate it freely.
        """
        cached, store = self.derived_cache("op_counts")
        if cached is not None:
            return dict(cached)
        tab = self.tree.node_table()
        cnt = tab.counts
        n_bodies_in_leaves = int(cnt[tab.is_leaf].sum())
        # one M2M/L2L application per parent<->child shift
        n_shifts = int((tab.parent_row >= 0).sum())
        w, x = self.table("w_list"), self.table("x_list")
        counts = {
            "P2M": n_bodies_in_leaves,
            "M2M": n_shifts,
            "M2L": int(self.table("v_list").values.size),
            "L2L": n_shifts,
            "L2P": n_bodies_in_leaves,
            "P2P": self.total_near_interactions(),
            "M2P": int(cnt[tab.row_of[w.keys]] @ w.counts),
            "P2L": int(cnt[tab.row_of[x.values]].sum()),
        }
        return dict(store(counts))


# --------------------------------------------------------------------------
# vectorized construction
# --------------------------------------------------------------------------


def _csr_expand(ptr: np.ndarray, arr: np.ndarray, rows: np.ndarray):
    """Concatenate CSR segments ``arr[ptr[r]:ptr[r+1]]`` for each row.

    Returns ``(values, counts)`` with ``counts[k] = len(segment of rows[k])``
    and ``values`` the segments back to back, in order — the vectorized
    equivalent of ``concat(arr[ptr[r]:ptr[r+1]] for r in rows)``.
    """
    cnt = ptr[rows + 1] - ptr[rows]
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=arr.dtype), cnt
    ends = np.cumsum(cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - cnt, cnt)
    return arr[np.repeat(ptr[rows], cnt) + within], cnt


def _adjacency_columns(bounds: np.ndarray):
    """Precompute the doubled-center / width columns for the touch test.

    Two integer AABBs touch iff ``|c2_a - c2_b| <= w_a + w_b`` per axis,
    where ``c2 = lo + hi`` (twice the center) and ``w = hi - lo``.  Grid
    coordinates fit in 21 bits, so int32 holds every intermediate; the
    narrower dtype halves the gather bandwidth of the hot test.
    """
    c2 = (bounds[:, :3] + bounds[:, 3:]).astype(np.int32)
    w = (bounds[:, 3:] - bounds[:, :3]).astype(np.int32)
    return tuple(np.ascontiguousarray(c2[:, k]) for k in range(3)) + tuple(
        np.ascontiguousarray(w[:, k]) for k in range(3)
    )


def _adjacent_rows(cols, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched AABB-touch test between row sets ``a`` and ``b``.

    Bounds are integer cell extents on the finest Morton grid with the
    upper bound exclusive; two cells touch iff ``a.hi >= b.lo`` and
    ``b.hi >= a.lo`` on every axis — equivalently ``|c2_a - c2_b| <=
    w_a + w_b`` in the precomputed columns (same predicate as the
    test-side scalar oracle, in exact integer arithmetic).
    """
    cx, cy, cz, wx, wy, wz = cols
    out = np.abs(cx[a] - cx[b]) <= wx[a] + wx[b]
    out &= np.abs(cy[a] - cy[b]) <= wy[a] + wy[b]
    out &= np.abs(cz[a] - cz[b]) <= wz[a] + wz[b]
    return out


def _integer_bounds(tab: NodeTable) -> np.ndarray:
    """Exact integer cell bounds, one ``(x0,y0,z0,x1,y1,z1)`` row per node."""
    width = np.int64(1) << (MAX_MORTON_LEVEL - tab.level)
    return np.concatenate((tab.cell, tab.cell + width[:, None]), axis=1)


def _group_table(
    owner_rows: np.ndarray,
    value_rows: np.ndarray,
    key_rows: np.ndarray,
    ids: np.ndarray,
) -> PairTable:
    """Group (owner, value) row pairs by owner into a :class:`PairTable`.

    ``key_rows`` — ascending, and holding every owner — fixes the key
    order (owners without pairs get empty rows); pair order within an
    owner is preserved.
    """
    order = stable_argsort(owner_rows, ids.size)
    counts = np.bincount(owner_rows, minlength=ids.size)[key_rows]
    return PairTable(ids[key_rows], counts, ids[value_rows[order]])


def build_interaction_lists(tree: AdaptiveOctree, *, folded: bool = True) -> InteractionLists:
    """Construct all lists for the current effective tree (vectorized).

    Works in rows of the tree's :class:`~repro.tree.octree.NodeTable` and
    hands back one :class:`PairTable` per family, owner-grouped in the dict
    views' key order; no per-node Python object is created.
    """
    tab = tree.node_table()
    eff_arr = tab.ids
    n = eff_arr.size
    cols = _adjacency_columns(_integer_bounds(tab))
    level, is_leaf, parent_row = tab.level, tab.is_leaf, tab.parent_row
    # effective-child CSR without per-node Python calls: the rows are a
    # preorder of the effective tree, so a stable sort of non-root rows by
    # parent row groups each node's effective children in octant order —
    # identical to ``tree.effective_children``'s ordering.
    nz = np.nonzero(parent_row >= 0)[0]
    child_arr = nz[stable_argsort(parent_row[nz], n)]
    cnt_children = np.bincount(parent_row[nz], minlength=n)
    child_ptr = csr_ptr(cnt_children)

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
        pc, pc_cnt = _csr_expand(
            lev_coll_ptr[lvl - 1], lev_coll_vals[lvl - 1], pos_in_level[parents]
        )
        cand_pool, cand_cnt = _csr_expand(child_ptr, child_arr, pc)
        pool_len = np.zeros(len(parents), dtype=np.int64)
        if pc.size:
            np.add.at(pool_len, np.repeat(np.arange(len(parents)), pc_cnt), cand_cnt)
        # cross product: every child of parent p against p's whole pool
        children, k_p = _csr_expand(child_ptr, child_arr, parents)
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

    # ------------------------------------------------------ U and W lists
    # One shared frontier serves both lists.  An adjacent leaf l of leaf b
    # is either a *leaf colleague* of b (same level, already classified —
    # no extra test needed), or the pair (b, l) shows up exactly once in
    # the descent below the deeper side's colleagues.  So we seed a
    # frontier with the children of each leaf's *internal* colleagues and
    # classify each candidate once: non-adjacent -> W(b), adjacent leaf ->
    # deeper U partner (recorded in both directions), adjacent internal ->
    # descend.  This halves the adjacency tests of the classical
    # per-leaf root descent: every unordered U pair is tested once.
    u_own: list[np.ndarray] = []
    u_val: list[np.ndarray] = []
    sc_parts: list[np.ndarray] = []
    sc_own_parts: list[np.ndarray] = []
    for lvl in range(max_level + 1):
        lrows = lev_rows[lvl][is_leaf[lev_rows[lvl]]]
        if not lrows.size:
            continue
        cvals, ccnt = _csr_expand(lev_coll_ptr[lvl], lev_coll_vals[lvl], pos_in_level[lrows])
        cown = np.repeat(lrows, ccnt)
        leaf_coll = is_leaf[cvals]  # same-level adjacent leaves, incl. self
        u_own.append(cown[leaf_coll])
        u_val.append(cvals[leaf_coll])
        sc_parts.append(cvals[~leaf_coll])
        sc_own_parts.append(cown[~leaf_coll])
    sc = np.concatenate(sc_parts) if sc_parts else np.empty(0, dtype=np.int64)
    sc_own = np.concatenate(sc_own_parts) if sc_own_parts else np.empty(0, dtype=np.int64)
    cand, cnt = _csr_expand(child_ptr, child_arr, sc)
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
        kids, cnt = _csr_expand(child_ptr, child_arr, cand)
        own = np.repeat(own, cnt)
        cand = kids
    uo = np.concatenate(u_own)
    uv = np.concatenate(u_val)
    wo = np.concatenate(w_own) if w_own else np.empty(0, dtype=np.int64)
    wv = np.concatenate(w_val) if w_val else np.empty(0, dtype=np.int64)

    # ------------------------------------------- X duality and near field
    leaf_ids = eff_arr[leaf_rows]
    none = np.empty(0, dtype=np.int64)
    tables["u_list"] = _group_table(uo, uv, leaf_rows, eff_arr)
    if folded:
        # Expand every W pair (b, w) to w's leaf descendants t.  Each
        # expanded pair covers *both* folded directions at once: t becomes
        # a P2P source of b (the W fold) and b a P2P source of t (the X
        # fold pushed down to recv's leaves), so the whole folded near
        # field is U pairs + the symmetric closure of the expansion.
        own, cand = wo, wv
        ext_own: list[np.ndarray] = []
        ext_leaf: list[np.ndarray] = []
        while cand.size:
            leaf_hit = is_leaf[cand]
            ext_own.append(own[leaf_hit])
            ext_leaf.append(cand[leaf_hit])
            own, cand = own[~leaf_hit], cand[~leaf_hit]
            kids, cnt = _csr_expand(child_ptr, child_arr, cand)
            own = np.repeat(own, cnt)
            cand = kids
        eo = np.concatenate(ext_own) if ext_own else none
        el = np.concatenate(ext_leaf) if ext_leaf else none
        # the grouping sort is stable and the U pairs come first in the
        # concatenated input, so each leaf's U list is exactly the prefix
        # of its near-source list
        tables["near_sources"] = _group_table(
            np.concatenate((uo, eo, el)), np.concatenate((uv, el, eo)), leaf_rows, eff_arr
        )
        # folded mode does not use M2P/P2L
        tables["w_list"] = PairTable(leaf_ids, np.zeros(leaf_ids.size, dtype=np.int64), none)
        tables["x_list"] = PairTable(none, none, none)
    else:
        tables["near_sources"] = tables["u_list"]
        tables["w_list"] = _group_table(wo, wv, leaf_rows, eff_arr)
        tables["x_list"] = _group_table(wv, wo, np.unique(wv), eff_arr)
    return InteractionLists(tree, folded, tables)
