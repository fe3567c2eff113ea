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
the fine-grained optimizer, the diagnostics) and for
:func:`repair_interaction_lists`, which edits them and drops the tables —
the next array consumer re-flattens the repaired dicts.  The original
per-pair construction is the test-side oracle ``tests/oracles/lists.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL, decode_morton
from repro.tree.octree import AdaptiveOctree, NodeTable
from repro.util.arrays import csr_ptr, stable_argsort

__all__ = [
    "FAMILIES",
    "InteractionLists",
    "PairTable",
    "RepairIneligible",
    "RepairStats",
    "build_interaction_lists",
    "repair_interaction_lists",
]


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
        """Flatten a dict view (the producer for repaired or hand-built lists)."""
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
    read: the modelled machine and :func:`repair_interaction_lists` read
    and edit them.  Whoever edits a view calls :meth:`drop_tables`
    afterwards, which makes the dicts the source and lets the next array
    consumer re-flatten them.
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
        #: raw W pairs ``(owners, w_nodes)`` as aligned node-id arrays, kept in
        #: *both* folded modes (folded construction empties ``w_list``); repair
        #: uses them to splice the X dual without rebuilding it.
        self._w_pairs: tuple | None = None
        #: folded mode only: the expanded fold pairs ``(owners, leaves)`` — one
        #: entry per (W owner b, leaf descendant t of the W node), i.e. exactly
        #: the non-U near-field pairs.  Repair edits the near rows of leaves
        #: outside the affected set through these.
        self._fold_pairs: tuple | None = None

    # --------------------------------------------------------------- tables
    def table(self, name: str) -> PairTable:
        """The :class:`PairTable` of family ``name`` (flattened from its
        dict view when a repair or a hand edit dropped it)."""
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

    def drop_structural_derived(self) -> list[str]:
        """Remove every ``structural=True`` derived entry; returns their keys.

        Called by :func:`repair_interaction_lists`: a repair changes the
        effective shape the structure-stamped artifacts (far-field geometry,
        near-field plan skeleton) were built for, so they are actively
        dropped rather than left to stamp-expire; generation-stamped entries
        stay in the dict and revalidate lazily.
        """
        dropped = [k for k, e in self._derived.items() if e[0] == "structure_generation"]
        for k in dropped:
            del self._derived[k]
        return dropped

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
    il = InteractionLists(tree, folded, tables)
    il._w_pairs = (eff_arr[wo], eff_arr[wv])
    if folded:
        il._fold_pairs = (eff_arr[eo], eff_arr[el])
    return il


# --------------------------------------------------------------------------
# incremental repair after localized tree surgery
# --------------------------------------------------------------------------
#
# A collapse/pushdown at node k only perturbs lists in a bounded
# neighbourhood of k's cell: every changed node (k itself, its appearing or
# disappearing descendants) lies inside box(k).  The **affected set** A
# has two parts.
#
# *Geometric*: node b's own rows (colleagues, U, V, W membership) change
# only when box(parent(b)) touches box(k).  Colleague/U partners touch b
# itself (and box(b) sits inside the parent's box); V partners are
# children of the parent's colleagues, so any changed pool member — which
# lies inside box(k) — must be adjacent to the parent; W members sit under
# b's own colleagues, whose change again forces a cell inside box(k)
# against b.  A_geo is therefore the root plus every child of a node whose
# cell touches an operated cell, found by a BFS that descends only through
# touching cells (sound: a child can only touch what its parent touches).
#
# *Provenance* (folded mode only): a leaf b far from box(k) can own a W
# pair (b, w) where w is an *ancestor* of k — w's membership in W(b) is
# untouched, but its fold expansion (the leaves under w) changed.  Those
# owners are read exactly from the stored ``_w_pairs`` by intersecting the
# members with the op nodes' ancestor chains; no geometric dilation is
# involved, which keeps A small on clustered trees where a distance bound
# would sweep in the whole core.
#
# A_geo is parents-first (BFS) and provenance owners append after it, so
# the colleague sweep below reads each parent's row either freshly
# recomputed or — for parents outside A, whose rows are by construction
# unchanged — verbatim from the old lists.  Rows of nodes outside A change
# only through the
# *pair-valued* structures (the X dual and the folded X-pushdown entries),
# and every such pair has its leaf owner inside A — so those rows are
# spliced through the stored ``_w_pairs`` / ``_fold_pairs`` without being
# recomputed.  Total work is O(|A| * neighbourhood), independent of tree
# size.


class RepairIneligible(RuntimeError):
    """The journal cannot justify a bounded repair; rebuild from scratch."""


@dataclass
class RepairStats:
    """What one :func:`repair_interaction_lists` call touched."""

    ops: int = 0
    #: nodes whose rows were recomputed (|A|)
    affected: int = 0
    #: stale rows dropped (nodes removed from the effective tree)
    removed: int = 0

    @property
    def nodes_touched(self) -> int:
        return self.affected + self.removed


class _Bounds:
    """Lazily batch-decoded integer cell bounds, indexed by node id."""

    def __init__(self, tree: AdaptiveOctree) -> None:
        self._tree = tree
        n = len(tree.nodes)
        self.lo = np.zeros((n, 3), dtype=np.int64)
        self.w = np.zeros(n, dtype=np.int64)
        self._known = np.zeros(n, dtype=bool)

    def ensure(self, ids: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        miss = np.unique(ids[~self._known[ids]])
        if not miss.size:
            return
        nodes = self._tree.nodes
        keys = np.array([nodes[int(i)].key_lo for i in miss], dtype=np.uint64)
        levels = np.array([nodes[int(i)].level for i in miss], dtype=np.int64)
        ix, iy, iz = decode_morton(keys)
        self.lo[miss, 0] = ix.astype(np.int64)
        self.lo[miss, 1] = iy.astype(np.int64)
        self.lo[miss, 2] = iz.astype(np.int64)
        self.w[miss] = np.int64(1) << (MAX_MORTON_LEVEL - levels)
        self._known[miss] = True

    def adjacent(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Batched touch test between aligned node-id arrays."""
        a = np.asarray(a_ids, dtype=np.int64)
        b = np.asarray(b_ids, dtype=np.int64)
        self.ensure(a)
        self.ensure(b)
        c2a = 2 * self.lo[a] + self.w[a, None]
        c2b = 2 * self.lo[b] + self.w[b, None]
        lim = (self.w[a] + self.w[b])[:, None]
        return (np.abs(c2a - c2b) <= lim).all(axis=1)


def _affected_set(
    tree: AdaptiveOctree, bounds: _Bounds, op_ids: list[int]
) -> list[int]:
    """Effective nodes whose parent's cell touches an operated cell.

    BFS from the root: every frontier node is *included* (it is the root,
    or a child of a cell that touches an op cell), and the walk *descends*
    only through cells that themselves touch an op cell — pruning is sound
    because a child can only touch what its parent touches.  Returned in
    BFS order, so parents precede children.
    """
    ops = np.asarray(op_ids, dtype=np.int64)
    bounds.ensure(ops)
    oc2 = 2 * bounds.lo[ops] + bounds.w[ops, None]  # (m, 3)
    ow = bounds.w[ops]  # (m,)
    out: list[int] = []
    frontier = [0]
    while frontier:
        fr = np.asarray(frontier, dtype=np.int64)
        bounds.ensure(fr)
        c2 = 2 * bounds.lo[fr] + bounds.w[fr, None]  # (f, 3)
        w = bounds.w[fr]
        # touch: |c2_b - c2_k| <= w_b + w_k on every axis, any op
        lim = (w[:, None] + ow[None, :])[:, :, None]  # (f, m, 1)
        touch = (np.abs(c2[:, None, :] - oc2[None, :, :]) <= lim).all(axis=2).any(axis=1)
        out.extend(fr.tolist())
        frontier = []
        for nid, ok in zip(fr.tolist(), touch.tolist()):
            if ok and not tree.nodes[nid].is_leaf:
                frontier.extend(tree.effective_children(nid))
    return out


def _batched_descent(
    tree: AdaptiveOctree,
    bounds: _Bounds,
    owners: np.ndarray,
    cands: np.ndarray,
    u_rows: dict[int, list[int]],
    w_rows: dict[int, list[int]] | None,
) -> None:
    """Shared frontier classifying (owner leaf, candidate) pairs.

    Adjacent leaves land in ``u_rows[owner]``, adjacent internal nodes
    expand to their children, non-adjacent candidates land in
    ``w_rows[owner]`` when given (W semantics) and are dropped otherwise
    (the root-descent U search).
    """
    nodes = tree.nodes
    while owners.size:
        adj = bounds.adjacent(cands, owners)
        if w_rows is not None:
            for b, c in zip(owners[~adj].tolist(), cands[~adj].tolist()):
                w_rows[b].append(c)
        owners, cands = owners[adj], cands[adj]
        keep_o: list[int] = []
        keep_c: list[int] = []
        for b, c in zip(owners.tolist(), cands.tolist()):
            if nodes[c].is_leaf:
                u_rows[b].append(c)
            else:
                for ch in tree.effective_children(c):
                    keep_o.append(b)
                    keep_c.append(ch)
        owners = np.asarray(keep_o, dtype=np.int64)
        cands = np.asarray(keep_c, dtype=np.int64)


def _leaf_descendants_flags(tree: AdaptiveOctree, nid: int) -> list[int]:
    """Effective leaf descendants of ``nid`` (by flags, no leaf set)."""
    if tree.nodes[nid].is_leaf:
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


def repair_interaction_lists(
    tree: AdaptiveOctree,
    lists: InteractionLists,
    journal,
    *,
    max_affected_frac: float = 0.5,
) -> RepairStats:
    """Surgically rewrite the rows perturbed by the journalled surgery.

    Mutates ``lists`` in place so it describes the tree's *current*
    effective shape, recomputing only the rows of the affected set and
    splicing pair-valued entries elsewhere.  It edits the dict views, so it
    drops the pair tables (:meth:`InteractionLists.drop_tables`; the next
    array consumer re-flattens the repaired dicts) and every
    ``structural=True`` derived-cache entry (the shape they memoized is
    gone) while leaving generation-stamped entries to revalidate lazily.
    Raises
    :class:`RepairIneligible` when the journal contains an unbounded edit
    (``dirty``) or the affected set is too large a fraction of the tree for
    repair to beat a rebuild; the caller falls back to a full build.  The
    repaired lists are element-wise identical (up to within-row order) to a
    from-scratch build — the property tests enforce this against the scalar
    oracle.
    """
    if lists.tree is not tree:
        raise RepairIneligible("lists were built for a different tree")
    ops = [(rec.kind, rec.node) for rec in journal]
    stats = RepairStats(ops=len(ops))
    if not ops:
        return stats
    if any(kind == "dirty" for kind, _ in ops):
        raise RepairIneligible("journal contains an out-of-band structural edit")
    if lists._w_pairs is None or (lists.folded and lists._fold_pairs is None):
        raise RepairIneligible("lists carry no pair provenance (pre-repair build)")
    nodes = tree.nodes
    op_ids = sorted({nid for _, nid in ops})
    if any(nid < 0 or nid >= len(nodes) for nid in op_ids):
        raise RepairIneligible("journal references an unknown node")

    bounds = _Bounds(tree)
    affected = _affected_set(tree, bounds, op_ids)
    a_set = set(affected)

    # folded owners whose W member is an *ancestor* of an op cell: their
    # fold expansion (the leaves under the member) changed even though
    # their own neighbourhood did not — exact provenance from the pairs
    if lists.folded:
        anc: set[int] = set()
        for nid in op_ids:
            cur = nid
            while cur >= 0 and cur not in anc:
                anc.add(cur)
                cur = nodes[cur].parent
        old_wo, old_wv = lists._w_pairs
        if old_wo.size and anc:
            hit = np.isin(
                old_wv, np.fromiter(anc, dtype=np.int64, count=len(anc))
            )
            for b in np.unique(old_wo[hit]).tolist():
                # an owner hidden by one of the ops is handled as a
                # removed row, not recomputed
                if b not in a_set and not nodes[b].hidden:
                    a_set.add(b)
                    affected.append(b)

    # rows of nodes that left the effective tree (collapsed-away subtrees)
    removed: set[int] = set()
    for kind, nid in ops:
        if kind == "collapse":
            for d in tree._descendants(nid):
                if nodes[d].hidden:
                    removed.add(d)
    removed -= a_set  # a later pushdown may have re-shown a node

    n_eff_old = max(1, len(lists.colleagues))
    stats.affected = len(affected)
    stats.removed = len(removed)
    if stats.nodes_touched > max(64, int(max_affected_frac * n_eff_old)):
        raise RepairIneligible(
            f"affected set {stats.nodes_touched} too large for {n_eff_old} nodes"
        )

    # ------------------------------------------------- colleagues / V sweep
    # BFS order guarantees parents first; A is ancestor-closed, so a
    # parent's colleague row is either freshly recomputed or (boundary
    # nodes' colleagues) verbatim from the old lists.
    new_coll: dict[int, list[int]] = {}
    new_v: dict[int, list[int]] = {}
    for b in affected:
        if b == 0:
            new_coll[0] = [0]
            new_v[0] = []
            continue
        parent = nodes[b].parent
        pcoll = new_coll.get(parent)
        if pcoll is None:
            pcoll = lists.colleagues[parent]
        cands: list[int] = []
        for pc in pcoll:
            cands.extend(tree.effective_children(pc))
        if cands:
            c_arr = np.asarray(cands, dtype=np.int64)
            adj = bounds.adjacent(c_arr, np.full(c_arr.size, b, dtype=np.int64))
            new_coll[b] = c_arr[adj].tolist()
            new_v[b] = c_arr[~adj].tolist()
        else:
            new_coll[b] = []
            new_v[b] = []

    # ------------------------------------------- U and W of affected leaves
    aff_leaves = [b for b in affected if nodes[b].is_leaf]
    new_u: dict[int, list[int]] = {b: [] for b in aff_leaves}
    new_w: dict[int, list[int]] = {b: [] for b in aff_leaves}
    if aff_leaves:
        la = np.asarray(aff_leaves, dtype=np.int64)
        # U: classical root descent through adjacent nodes
        _batched_descent(
            tree, bounds, la.copy(), np.zeros(la.size, dtype=np.int64), new_u, None
        )
        # W: descend below internal colleagues; adjacent leaves are in U
        w_own: list[int] = []
        w_cand: list[int] = []
        for b in aff_leaves:
            for c in new_coll[b]:
                if c != b and not nodes[c].is_leaf:
                    for ch in tree.effective_children(c):
                        w_own.append(b)
                        w_cand.append(ch)
        _batched_descent(
            tree,
            bounds,
            np.asarray(w_own, dtype=np.int64),
            np.asarray(w_cand, dtype=np.int64),
            {b: [] for b in aff_leaves},  # adjacent leaves already in U
            new_w,
        )

    # --------------------------------------------------------- row splicing
    # the edits below go to the dict views: they are the source from here
    # on, and the next array consumer re-flattens them into tables
    lists.drop_tables()
    gone = removed | {b for b in affected if not nodes[b].is_leaf}
    for d in removed:
        lists.colleagues.pop(d, None)
        lists.v_list.pop(d, None)
    for d in gone:
        lists.u_list.pop(d, None)
        lists.w_list.pop(d, None)
        lists.near_sources.pop(d, None)
    lists.colleagues.update(new_coll)
    lists.v_list.update(new_v)

    # owners whose stored pairs are stale: every affected or removed node
    # (an owner with any changed pair is always inside A — see the module
    # comment — so filtering on owners alone is complete)
    dirty = a_set | removed
    old_wo, old_wv = lists._w_pairs
    keep_w = ~np.isin(old_wo, np.fromiter(dirty, dtype=np.int64, count=len(dirty)))

    if lists.folded:
        old_fo, old_ft = lists._fold_pairs
        keep_f = ~np.isin(
            old_fo, np.fromiter(dirty, dtype=np.int64, count=len(dirty))
        )
        # incoming fold entries per affected leaf from *unchanged* owners
        incoming: dict[int, list[int]] = {b: [] for b in aff_leaves}
        drop_by_t: dict[int, set[int]] = {}
        for b, t in zip(old_fo.tolist(), old_ft.tolist()):
            if b in dirty:
                if t not in gone and t not in a_set:
                    drop_by_t.setdefault(t, set()).add(b)
            elif t in incoming:
                incoming[t].append(b)
        # new fold pairs from the recomputed W rows of affected leaves
        new_fo: list[int] = []
        new_ft: list[int] = []
        add_by_t: dict[int, list[int]] = {}
        own_exp: dict[int, list[int]] = {b: [] for b in aff_leaves}
        for b in aff_leaves:
            for w in new_w[b]:
                for t in _leaf_descendants_flags(tree, w):
                    new_fo.append(b)
                    new_ft.append(t)
                    own_exp[b].append(t)
                    if t in incoming:
                        incoming[t].append(b)
                    elif t not in gone:
                        add_by_t.setdefault(t, []).append(b)
        # rows outside A: strip fold entries of dirty owners, append new
        for t, drops in drop_by_t.items():
            row = lists.near_sources[t]
            lists.near_sources[t] = [s for s in row if s not in drops]
        for t, adds in add_by_t.items():
            lists.near_sources[t].extend(adds)
        # rows inside A: rebuilt whole (U prefix preserved, as in the builder)
        for b in aff_leaves:
            lists.u_list[b] = list(new_u[b])
            lists.w_list[b] = []
            lists.near_sources[b] = new_u[b] + own_exp[b] + incoming[b]
        lists._fold_pairs = (
            np.concatenate((old_fo[keep_f], np.asarray(new_fo, dtype=np.int64))),
            np.concatenate((old_ft[keep_f], np.asarray(new_ft, dtype=np.int64))),
        )
        lists.x_list = {}
    else:
        # X dual: remove dirty owners' pairs, add the recomputed ones
        for b, w in zip(old_wo[~keep_w].tolist(), old_wv[~keep_w].tolist()):
            row = lists.x_list.get(w)
            if row is not None:
                try:
                    row.remove(b)
                except ValueError:
                    pass
                if not row:
                    del lists.x_list[w]
        for b in aff_leaves:
            lists.u_list[b] = list(new_u[b])
            lists.w_list[b] = list(new_w[b])
            lists.near_sources[b] = list(new_u[b])
            for w in new_w[b]:
                lists.x_list.setdefault(w, []).append(b)
        for d in removed:
            lists.x_list.pop(d, None)

    new_wo = [b for b in aff_leaves for _ in new_w[b]]
    new_wv = [w for b in aff_leaves for w in new_w[b]]
    lists._w_pairs = (
        np.concatenate((old_wo[keep_w], np.asarray(new_wo, dtype=np.int64))),
        np.concatenate((old_wv[keep_w], np.asarray(new_wv, dtype=np.int64))),
    )

    # near rows whose content changed — the near-field planner keeps a
    # per-row signature cache keyed off this set so it re-sorts only these
    changed_rows = set(aff_leaves) | gone
    if lists.folded:
        changed_rows.update(drop_by_t)
        changed_rows.update(add_by_t)
    tracker = getattr(lists, "_near_rows_changed", None)
    if tracker is None:
        tracker = lists._near_rows_changed = set()
    tracker.update(changed_rows)

    lists.drop_structural_derived()
    # structure generation this repair brought the lists up to; consumers
    # (far-field geometry, near-field plan) use it to count partial rebuilds
    lists.last_repair = {
        "structure_generation": tree.structure_generation,
        "nodes_touched": stats.nodes_touched,
        "affected_leaves": aff_leaves,
        "rows_changed": len(changed_rows),
    }
    return stats
