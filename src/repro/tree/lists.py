"""Adaptive FMM interaction lists, with the W/X work folded into P2P.

For the *adaptive* tree the set of nodes involved in each operation is
specific to the tree structure (the paper's §I-C).  Of the classical lists
of Cheng–Greengard–Rokhlin two remain:

* ``U(b)`` — leaves adjacent to leaf b (any level, including b): P2P.
* ``V(b)`` — same-level children of b's parent's colleagues that are not
  adjacent to b: M2L.

The other two — ``W(b)``, descendants of b's colleagues whose parent is
adjacent to leaf b but which are not themselves adjacent to b, and their
dual ``X`` — are folded into the near field, as the paper does on the GPU
("near-field = all pairs not well separated"): a W node's leaf
descendants become P2P sources of b and b a P2P source of each of them,
so the near field (``near_sources``) is pure leaf-leaf pairs and the far
field pure M2L, at the cost of extra direct interactions.

The builder reads the tree's :class:`~repro.tree.octree.NodeTable` and
decides adjacency in exact integer (Morton grid) arithmetic, immune to
drift from repeated box halving.  It works level by level (Goude &
Engblom): a child's colleagues are read off a fixed 27-offset x 8-octant
table from its parent's colleagues, and V is counted then but listed only
when something reads it (:class:`DeferredTable`: a one-shot solve wants
the count alone).  U and W come from one batched frontier below the
leaves' colleagues, every candidate pair of a round classified by one
broadcast overlap test.  Each family is a :class:`PairTable` of
``(owner, value)`` node ids, owner-grouped in the order the dict views
always had; the far-field geometry, the near-field plan,
:meth:`InteractionLists.op_counts` and the modelled machine gather from
the tables, and the ``{node id: [node ids]}`` dicts are *views* boxed on
first read (:mod:`repro.cluster`, the fine-grained optimizer).  A tree
whose shape changed gets a fresh build (:class:`~repro.tree.cache.ListCache`);
lists are never edited in place.  The per-pair construction and the
batched-frontier builder this one replaced are the test-side oracles in
``tests/oracles/lists.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.tree.octree import AdaptiveOctree, NodeTable
from repro.util.arrays import csr_ptr, segment_positions, stable_argsort

__all__ = ["FAMILIES", "DeferredTable", "InteractionLists", "PairTable", "build_interaction_lists"]


#: the list families, in the order a build produces them
FAMILIES = ("colleagues", "v_list", "u_list", "near_sources")


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


@dataclass(frozen=True)
class DeferredTable:
    """A family with known keys and counts whose values ``derive()`` lists."""

    keys: np.ndarray
    counts: np.ndarray
    derive: Callable[[], np.ndarray]


def _dict_view(name: str) -> property:
    def get(self) -> dict[int, list[int]]:
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = self.table(name).to_dict()
        return view

    return property(get, doc=f"``{name}`` as ``{{owner id: [ids]}}`` (lazy view).")


class InteractionLists:
    """All interaction lists of one effective tree configuration.

    A build's product is one :class:`PairTable` per family (:meth:`table`);
    the array consumers — far-field geometry, near-field plan,
    :meth:`op_counts`, the modelled machine — gather from those.  The four
    dict attributes (per-node lists keyed by node id, only effective nodes
    appear; ``u_list`` / ``near_sources`` hold leaves only, the latter
    including the leaf itself) are *views*, boxed from the tables on first
    read, for the cluster model and the fine-grained optimizer.  A lists
    object is never changed once built: the tables are its one source, and
    nothing writes a view.
    """

    colleagues = _dict_view("colleagues")
    v_list = _dict_view("v_list")
    u_list = _dict_view("u_list")
    near_sources = _dict_view("near_sources")

    def __init__(self, tree: AdaptiveOctree, tables: dict[str, PairTable | DeferredTable]):
        self.tree = tree
        self._tables = dict(tables)
        self._views: dict[str, dict] = {}
        #: derived data memoized against the tree's ``generation`` stamp
        #: (op counts, near-field work items / evaluation plans); body counts
        #: change under refit while the lists themselves stay valid, so derived
        #: quantities carry their own finer-grained stamp.
        self._derived: dict = {}

    # --------------------------------------------------------------- tables
    def table(self, name: str) -> PairTable:
        """The :class:`PairTable` of family ``name``; a deferred family's
        values are derived on this first read and kept."""
        t = self._tables[name]
        if isinstance(t, DeferredTable):
            t = self._tables[name] = PairTable(t.keys, t.counts, t.derive())
        return t

    def listed(self, name: str) -> bool:
        """Whether family ``name``'s values exist (not deferred, or read)."""
        return isinstance(self._tables[name], PairTable)

    def n_pairs(self, name: str) -> int:
        """Pairs in family ``name``, without deriving a deferred one."""
        return int(self._tables[name].counts.sum())

    def materialized(self, name: str) -> bool:
        """Whether the dict view of family ``name`` has been boxed."""
        return name in self._views

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
        for M2M/L2L, per node pair for M2L, per body-pair for P2P.

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
        counts = {
            "P2M": n_bodies_in_leaves,
            "M2M": n_shifts,
            "M2L": self.n_pairs("v_list"),
            "L2L": n_shifts,
            "L2P": n_bodies_in_leaves,
            "P2P": self.total_near_interactions(),
        }
        return dict(store(counts))


# --------------------------------------------------------------------------
# vectorized construction
# --------------------------------------------------------------------------


def _adjacency_columns(cell: np.ndarray, width: np.ndarray):
    """The touch test's per-axis columns of cells with low corners ``cell``
    and sides ``width`` on the finest Morton grid: two cells touch iff
    ``|c2_a - c2_b| <= w_a + w_b`` per axis, ``c2 = 2 cell + w``.  Grid
    coordinates fit in 21 bits, so int32 holds every intermediate; the
    narrower dtype halves the gather bandwidth."""
    c2 = (2 * cell + width[:, None]).astype(np.int32)
    return (*np.ascontiguousarray(c2.T), *[width.astype(np.int32)] * 3)


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


def _group_table(owner_rows, value_rows, key_rows, ids) -> PairTable:
    """Group (owner, value) row pairs by owner into a :class:`PairTable`.

    ``key_rows`` — ascending, and holding every owner — fixes the key
    order (owners without pairs get empty rows); pair order within an
    owner is preserved.
    """
    order = stable_argsort(owner_rows, ids.size)
    counts = np.bincount(owner_rows, minlength=ids.size)[key_rows]
    return PairTable(ids[key_rows], counts, ids[value_rows[order]])


def _octant_tables():
    """Over row ``8 e + o`` — ``e = (E + 1) . (9, 3, 1)`` the key of a
    colleague's offset ``E``, ``o`` a child's octant — ``touch`` sets bit
    ``j`` where the colleague's child ``j`` touches child ``o``, and
    ``key[8 (8 e + o) + j]`` is the key of their offset ``2E + j - o``."""
    side = (np.arange(8)[:, None] >> np.arange(3)) & 1  # bit k of an octant: axis k
    E = np.array(list(product((-1, 0, 1), repeat=3)))
    F = (2 * E[:, None, None] + side - side[:, None]).reshape(216, 8, 3)
    touch = np.packbits(np.abs(F).max(axis=2) <= 1, axis=1, bitorder="little")[:, 0]
    return touch, (F @ np.array([9, 3, 1]) + 13).ravel()


_TOUCH, _CHILD_KEY = _octant_tables()


def _child_slots(parent_row, child_arr, octant):
    """Every row's children by slot ``k``, its ``k``-th in child-list order
    (octant order, unless a refit appended a materialized child):
    ``(child_of, perm, to_slots)``, the child in slot ``k`` of row ``r``
    being ``child_of[8 r + k]``, and ``to_slots[perm[r], bits]`` the slots
    of ``r`` whose child's octant is in the octant set ``bits``."""
    n, kids = parent_row.size, parent_row[child_arr]
    slot = np.arange(kids.size) - csr_ptr(np.bincount(kids, minlength=n))[kids]
    child_of = np.full(8 * n, -1, dtype=np.int64)
    child_of[kids * 8 + slot] = child_arr
    slot_octant = np.full((n, 8), 8, dtype=np.uint8)  # 8: an empty slot
    slot_octant[kids, slot] = octant[child_arr]
    codes, perm = np.unique(slot_octant.view(np.uint64)[:, 0], return_inverse=True)
    octs = codes.view(np.uint8).reshape(-1, 1, 8).astype(np.int64)
    to_slots = (((np.arange(256)[:, None] >> octs) & 1) << np.arange(8)).sum(axis=2)
    return child_of, perm, to_slots.astype(np.uint8)


def _colleague_children(touch, children, octant, rows, parent, coll):
    """The children of each row's parent's colleagues ``Q`` (``coll``: a
    CSR pointer, colleague rows and offset keys; read at ``parent``) whose
    octant ``touch[8 e + o]`` holds, ``e`` ``Q``'s offset key and ``o`` the
    row's octant: ``Q`` first, then ``Q``'s child-list order — a pool of
    those children filtered by adjacency.  ``children`` is
    :func:`_child_slots`; returns the children found per row, their rows
    and their ``8 (8 e + o) + octant`` entries."""
    (child_of, perm, to_slots), (coll_ptr, coll_vals, coll_key) = children, coll
    pos, cnt = segment_positions(coll_ptr[parent], coll_ptr[parent + 1])
    key, Q = coll_key[pos] * 8 + np.repeat(octant[rows], cnt), coll_vals[pos]
    bits = to_slots[perm[Q], touch[key]]
    # slot k of pair p is flat position 8 p + k: shift it to 8 Q + k
    flat = np.flatnonzero(np.unpackbits(bits[:, None], axis=1, bitorder="little").view(bool))
    pair = flat >> 3
    cand = child_of[(8 * (Q - np.arange(pos.size)))[pair] + flat]
    found = np.add.reduceat(np.bitwise_count(bits), csr_ptr(cnt)[:-1]).astype(np.int64)
    return found, cand, 8 * key[pair] + octant[cand]


def build_interaction_lists(tree: AdaptiveOctree) -> InteractionLists:
    """Construct all lists for the current effective tree (vectorized).

    Works in rows of the tree's :class:`~repro.tree.octree.NodeTable` and
    hands back one :class:`PairTable` per family (V deferred), owner-grouped
    in the dict views' key order; no per-node Python object is created.
    """
    tab = tree.node_table()
    eff_arr = tab.ids
    n = eff_arr.size
    level, is_leaf, parent_row = tab.level, tab.is_leaf, tab.parent_row
    # effective-child CSR without per-node Python calls: the rows are a
    # preorder of the effective tree, so a stable sort of non-root rows by
    # parent row groups each node's effective children in octant order —
    # identical to ``tree.effective_children``'s ordering.
    nz = np.nonzero(parent_row >= 0)[0]
    child_arr = nz[stable_argsort(parent_row[nz], n)]
    cnt_children = np.bincount(parent_row[nz], minlength=n)
    child_lo, child_hi = csr_ptr(cnt_children)[:-1], np.cumsum(cnt_children)
    # bit k of a child's octant is its side along axis k
    octant = ((tab.cell >> (MAX_MORTON_LEVEL - level)[:, None]) & 1) @ np.array([1, 2, 4])
    children = _child_slots(parent_row, child_arr, octant)

    # ---------------------------------------------------------- colleagues
    # Level by level (Goude & Engblom): a child's colleagues are the
    # touching children of its parent's colleagues, read off a fixed
    # 27-offset x 8-octant table — no adjacency test.  A level's rows,
    # ascending, are its Morton order and the tables' key order; ``at``
    # is a row's position in that order.
    by_level = stable_argsort(level, int(level.max(initial=0)) + 1)
    level_ptr = csr_ptr(np.bincount(level))
    at = np.empty(n, dtype=np.int64)
    at[by_level] = np.arange(n)
    coll_vals = [np.zeros(1, dtype=np.int64)]  # the root is its own colleague,
    coll_key = [np.full(1, 13, dtype=np.int64)]  # at offset (0, 0, 0)
    coll_cnt = [np.ones(1, dtype=np.int64)]
    v_cnt = [np.zeros(1, dtype=np.int64)]
    for lvl in range(1, level_ptr.size - 1):
        rows = by_level[level_ptr[lvl] : level_ptr[lvl + 1]]
        up = level_ptr[lvl - 1]  # first key position of the parents' level
        ptr = csr_ptr(coll_cnt[-1])
        cnt, vals, entry = _colleague_children(
            _TOUCH, children, octant, rows, at[parent_row[rows]] - up,
            (ptr, coll_vals[-1], coll_key[-1]),
        )
        # |V| = the children of the parent's colleagues, less the colleagues
        pool = np.add.reduceat(cnt_children[coll_vals[-1]], ptr[:-1])
        coll_vals.append(vals)
        coll_key.append(_CHILD_KEY[entry])
        coll_cnt.append(cnt)
        v_cnt.append(pool[at[parent_row[rows]] - up] - cnt)
    owners = eff_arr[by_level]
    coll_cnt, coll_vals, coll_key = map(np.concatenate, (coll_cnt, coll_vals, coll_key))
    coll = (csr_ptr(coll_cnt), coll_vals, coll_key)

    def v_values() -> np.ndarray:
        # the children of the parent's colleagues that do not touch
        rows = by_level[1:]
        _, vals, _ = _colleague_children(
            ~_TOUCH, children, octant, rows, at[parent_row[rows]], coll
        )
        return eff_arr[vals]

    tables = {
        "colleagues": PairTable(owners, coll_cnt, eff_arr[coll_vals]),
        "v_list": DeferredTable(owners, np.concatenate(v_cnt), v_values),
    }

    leaf_rows = np.nonzero(is_leaf)[0]
    cols = _adjacency_columns(tab.cell, np.int64(1) << (MAX_MORTON_LEVEL - level))

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
    lrows = by_level[is_leaf[by_level]]
    pos, ccnt = segment_positions(coll[0][at[lrows]], coll[0][at[lrows] + 1])
    cvals = coll_vals[pos]
    cown = np.repeat(lrows, ccnt)
    leaf_coll = is_leaf[cvals]  # same-level adjacent leaves, incl. self
    u_own = [cown[leaf_coll]]
    u_val = [cvals[leaf_coll]]
    sc, sc_own = cvals[~leaf_coll], cown[~leaf_coll]
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
