"""Property tests: the vectorized list builder matches the scalar oracle,
and its pair tables are what every consumer reads.

:func:`build_interaction_lists` classifies whole frontiers of candidate
pairs with batched integer-AABB overlap tests and hands back one pair table
per list family; the original per-pair implementation is kept, test-side,
as :func:`tests.oracles.lists.build_interaction_lists_scalar` exactly so
the two can be compared on randomized adaptive trees.  Hypothesis drives
the tree shapes — distribution family, body count, leaf capacity ``S``,
folded/unfolded, the degenerate clouds of ``tests/clouds.py`` — far beyond
what hand-picked fixtures cover.  The second half is the **table
contract**: tables == dict views == oracle rows, the V list == what the
colleague pairs of split nodes imply, fresh and after surgery (the
identity the far-field geometry rests on; the oracle's integer
(level, displacement) keys == the float ones), ``op_counts`` from tables,
and which solves leave which views unboxed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions.generators import gaussian_blobs, plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.fmm.evaluator import FMMSolver
from repro.fmm.farfield import _group_by_key, far_field_geometry
from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.kernels import GravityKernel
from repro.kernels.direct import direct_evaluate
from repro.runtime.engine import ExecutionEngine
from repro.runtime.shards import ProcessEngine
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from repro.tree.lists import FAMILIES
from tests.clouds import CLOUDS, deep_cluster
from tests.oracles.lists import build_interaction_lists_scalar
from tests.oracles.m2l import displacement_classes

_FAMILIES = {
    "plummer": plummer,
    "blobs": gaussian_blobs,
    "uniform": uniform_cube,
}


def _assert_equivalent(vec, ref):
    """Same nodes, same lists; order-insensitive where traversal-dependent."""
    assert set(vec.colleagues) == set(ref.colleagues)
    assert vec.colleagues == ref.colleagues
    assert vec.v_list == ref.v_list
    for name in ("u_list", "w_list", "x_list", "near_sources"):
        dv, dr = getattr(vec, name), getattr(ref, name)
        assert set(dv) == set(dr), name
        for k in dv:
            assert sorted(dv[k]) == sorted(dr[k]), (name, k)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    n=st.integers(min_value=40, max_value=900),
    S=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
)
def test_vectorized_matches_scalar_oracle(family, n, S, seed, folded):
    pts = _FAMILIES[family](n, seed=seed).positions
    tree = AdaptiveOctree(pts, S=S)
    vec = build_interaction_lists(tree, folded=folded)
    ref = build_interaction_lists_scalar(tree, folded=folded)
    _assert_equivalent(vec, ref)


@settings(max_examples=10, deadline=None)
@given(
    S_new=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_vectorized_matches_scalar_after_surgery(S_new, seed):
    """Equivalence must survive enforce_s surgery (hidden/pruned nodes)."""
    pts = plummer(500, seed=seed).positions
    tree = AdaptiveOctree(pts, S=24)
    tree.enforce_s(S_new)
    _assert_equivalent(
        build_interaction_lists(tree, folded=True),
        build_interaction_lists_scalar(tree, folded=True),
    )


@pytest.mark.parametrize("folded", [True, False])
def test_duplicated_points_worst_case(folded):
    """Many coincident bodies force max-depth leaves over capacity."""
    rng = np.random.default_rng(7)
    base = rng.random((30, 3))
    pts = np.repeat(base, 20, axis=0) + rng.normal(scale=1e-13, size=(600, 3))
    tree = AdaptiveOctree(pts, S=8)
    _assert_equivalent(
        build_interaction_lists(tree, folded=folded),
        build_interaction_lists_scalar(tree, folded=folded),
    )


# ---------------------------------------------------------------- surgery
def _random_surgery(tree, rng, n_ops):
    """Apply up to ``n_ops`` random collapse/pushdown ops (root excluded)."""
    applied = 0
    for _ in range(n_ops):
        if rng.random() < 0.5:
            internal = [
                n
                for n in tree.effective_nodes()
                if not tree.nodes[n].is_leaf and n != 0
            ]
            if internal:
                tree.collapse(internal[int(rng.integers(len(internal)))])
                applied += 1
        else:
            leaves = [
                l
                for l in tree.leaves()
                if tree.nodes[l].count >= 2 and tree.nodes[l].level < tree.max_level
            ]
            if leaves:
                tree.pushdown(leaves[int(rng.integers(len(leaves)))])
                applied += 1
    return applied


def _snapshot(lists):
    return {name: {k: list(v) for k, v in getattr(lists, name).items()} for name in FAMILIES}


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(["plummer", "blobs"]),
    n=st.integers(min_value=80, max_value=700),
    S=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
    n_ops=st.integers(min_value=1, max_value=6),
)
def test_repaired_lists_match_scratch_build(family, n, S, seed, folded, n_ops):
    """Random interleaved collapse/pushdown sequences: the lists the cache
    hands back after surgery are one rebuild equal to a from-scratch build
    and the scalar oracle, and the lists it held before are left as they
    were (a lists object never changes once built)."""
    pts = _FAMILIES[family](n, seed=seed).positions
    tree = AdaptiveOctree(pts, S=S)
    cache = ListCache()
    old = cache.get(tree, folded=folded)
    before = _snapshot(old)
    applied = _random_surgery(tree, np.random.default_rng(seed), n_ops)
    lists = cache.get(tree, folded=folded)
    if applied == 0:
        assert lists is old and (cache.builds, cache.hits) == (1, 1)
        return
    assert lists is not old
    assert (cache.builds, cache.hits, cache.repairs) == (2, 0, 0)
    assert _snapshot(old) == before
    _assert_equivalent(lists, build_interaction_lists(tree, folded=folded))
    _assert_equivalent(lists, build_interaction_lists_scalar(tree, folded=folded))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
)
def test_repair_composes_across_refit_rounds(seed, folded):
    """Surgery and refit interleave (the balancer's real access pattern):
    each round's surgery costs one rebuild, a refit that keeps the shape is
    a hit, one that materializes pruned octants one more rebuild, and every
    lookup equals a scratch build."""
    pts = plummer(500, seed=seed).positions
    tree = AdaptiveOctree(pts, S=16)
    cache = ListCache()
    rng = np.random.default_rng(seed)
    lists = cache.get(tree, folded=folded)
    for _ in range(3):
        builds = cache.builds
        if _random_surgery(tree, rng, 2):
            lists = cache.get(tree, folded=folded)
            assert cache.builds == builds + 1
        else:
            assert cache.get(tree, folded=folded) is lists
            assert cache.builds == builds
        _assert_equivalent(lists, build_interaction_lists(tree, folded=folded))
        moved = tree.points + rng.normal(scale=1e-4, size=tree.points.shape)
        tree.points = np.clip(moved, tree.root_box.low, tree.root_box.high)
        sg, builds = tree.structure_generation, cache.builds
        tree.refit()
        after = cache.get(tree, folded=folded)
        if tree.structure_generation == sg:
            assert after is lists and cache.builds == builds  # frozen shape: hit
        else:
            # drift materialized pruned octants: one rebuild
            assert after is not lists and cache.builds == builds + 1
            lists = after
            _assert_equivalent(lists, build_interaction_lists(tree, folded=folded))
    assert cache.repairs == 0


# ------------------------------------------------------ the table contract
def _flatten(d):
    """``{owner: [values]}`` as the (owner, value) pair list, in dict order."""
    return [(k, v) for k, vs in d.items() for v in vs]


def _table_pairs(table):
    return list(zip(table.owners.tolist(), table.values.tolist()))


#: families whose in-row order the two builders share (candidate order);
#: the others are traversal-order dependent and compare as sorted rows
_ORDERED = ("colleagues", "v_list")
#: families both builders key in leaf preorder (colleagues / V: level-major
#: against preorder; X: by row against discovery order)
_LEAF_KEYED = ("u_list", "w_list", "near_sources")


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cloud=st.sampled_from(sorted(CLOUDS)),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
)
def test_pair_tables_are_the_dict_views_are_the_oracle_rows(cloud, seed, folded):
    pts, S = CLOUDS[cloud](seed)
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=folded)
    ref = build_interaction_lists_scalar(tree, folded=folded)
    assert not any(lists.materialized(name) for name in FAMILIES)
    for name in FAMILIES:
        table = lists.table(name)
        view, rows = getattr(lists, name), getattr(ref, name)
        assert lists.materialized(name)
        # table == flatten of its view: owner order and in-row order
        assert table.keys.tolist() == list(view)
        assert table.counts.tolist() == [len(vs) for vs in view.values()]
        assert _table_pairs(table) == _flatten(view)
        # == the oracle's rows
        assert set(view) == set(rows), name
        if name in _LEAF_KEYED:
            assert list(view) == list(rows) == tree.leaves(), name
        for k, vs in view.items():
            assert vs == rows[k] if name in _ORDERED else sorted(vs) == sorted(rows[k])
    # the oracle's hand-filled dicts flatten to the same pairs
    for name in FAMILIES:
        assert sorted(_table_pairs(ref.table(name))) == sorted(
            _table_pairs(lists.table(name))
        )


def _float_class_keys(tree, srows, trows):
    """The (level, displacement) key of each V pair by the float route: the
    centre offset in units of the pair's cell size, rounded."""
    tab = tree.node_table()
    level = tab.level[trows]
    d = tab.centers[trows] - tab.centers[srows]
    k = np.rint(d / (tree.root_box.size / 2.0**level)[:, None]).astype(np.int64)
    return ((level * 17 + k[:, 0] + 8) * 17 + k[:, 1] + 8) * 17 + k[:, 2] + 8


def _assert_class_keys_are_the_float_keys(tree, lists):
    """The oracle's per-(level, displacement) classes: ascending integer
    keys that equal the float keys on every pair, V-table order inside."""
    keys, classes = displacement_classes(tree, lists, CartesianExpansion(1))
    assert len(keys) == len(classes) and (np.diff(keys) > 0).all()
    n_pairs = 0
    for key, (srows, trows, _op) in zip(keys.tolist(), classes):
        assert (_float_class_keys(tree, srows, trows) == key).all()
        n_pairs += srows.size
    v = lists.table("v_list")
    assert n_pairs == v.values.size
    row_of = tree.node_table().row_of
    trow, srow = row_of[v.owners], row_of[v.values]
    order = np.argsort(_float_class_keys(tree, srow, trow), kind="stable")
    if classes:
        assert np.array_equal(np.concatenate([c[0] for c in classes]), srow[order])
        assert np.array_equal(np.concatenate([c[1] for c in classes]), trow[order])


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cloud=st.sampled_from(["plummer", "uniform", "shell", "one-octant"]),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
)
def test_integer_class_keys_equal_the_float_keys_on_every_v_pair(cloud, seed, folded):
    pts, S = CLOUDS[cloud](seed)
    tree = AdaptiveOctree(pts, S=S)
    _assert_class_keys_are_the_float_keys(
        tree, build_interaction_lists(tree, folded=folded)
    )


def test_integer_class_keys_on_a_tree_sixteen_levels_deep():
    """Centres 16+ halvings down still round to the integer offsets."""
    tree = AdaptiveOctree(deep_cluster(), S=3)
    lists = build_interaction_lists(tree, folded=True)
    levels = tree.node_table().level[tree.node_table().row_of[lists.table("v_list").owners]]
    assert levels.max() >= 16
    _assert_class_keys_are_the_float_keys(tree, lists)


# ------------------------------ the V list is implied by the colleague pairs
def _implied_v_pairs(tree, geom):
    """The (target row, source row) pairs the octet classes translate
    across: existing child i of P x existing child j of Q over the class's
    (Q, P) octet pairs, wherever the two children are not adjacent.  A
    class holds the pairs of one direction D between natural octets and
    those of -D between mirrored ones (``n_split`` rows down)."""
    tab = tree.node_table()
    cell = tab.cell >> (MAX_MORTON_LEVEL - tab.level)[:, None]
    n_split = geom.octet_rows.size // 2
    assert np.array_equal(geom.octet_rows[:n_split], geom.octet_rows[n_split:])
    natural, mirrored = geom.child_slots
    assert np.array_equal(mirrored, natural + 8 * n_split + 7 - 2 * (natural % 8))
    slot_row = np.full(n_split * 8, -1)
    slot_row[natural] = geom.child_rows
    slot_row = slot_row.reshape(-1, 8)
    pairs = []
    for src, tgt, _op in geom.m2l_classes:
        # each target octet row at most once per class
        assert np.unique(tgt).size == tgt.size
        assert ((src >= n_split) == (tgt >= n_split)).all()
        sign = np.where(tgt >= n_split, -1, 1)[:, None]
        src, tgt = src % n_split, tgt % n_split
        offset = sign * (cell[geom.octet_rows[tgt]] - cell[geom.octet_rows[src]])
        assert (offset == offset[0]).all() and np.abs(offset[0]).max() == 1
        for q, p in zip(src.tolist(), tgt.tolist()):
            for i in slot_row[p][slot_row[p] >= 0].tolist():
                for j in slot_row[q][slot_row[q] >= 0].tolist():
                    if np.abs(cell[i] - cell[j]).max() >= 2:
                        pairs.append((i, j))
    return pairs


def _assert_v_list_is_implied(tree, lists):
    geom = far_field_geometry(tree, lists, CartesianExpansion(1))
    assert len(geom.m2l_classes) <= 13
    v = lists.table("v_list")
    row_of = tree.node_table().row_of
    implied = _implied_v_pairs(tree, geom)
    assert len(implied) == len(set(implied)) == v.values.size == geom.n_m2l
    assert set(implied) == set(zip(row_of[v.owners].tolist(), row_of[v.values].tolist()))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cloud=st.sampled_from(sorted(CLOUDS)),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
    n_ops=st.integers(min_value=0, max_value=4),
)
def test_v_pairs_are_the_nonadjacent_children_of_split_colleague_pairs(
    cloud, seed, folded, n_ops
):
    """What ``far_field_geometry`` rests on, fresh and after surgery (an
    effective tree with hidden children under its leaves)."""
    pts, S = CLOUDS[cloud](seed)
    tree = AdaptiveOctree(pts, S=S)
    _assert_v_list_is_implied(tree, build_interaction_lists(tree, folded=folded))
    if _random_surgery(tree, np.random.default_rng(seed), n_ops):
        _assert_v_list_is_implied(tree, build_interaction_lists(tree, folded=folded))


@pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
@pytest.mark.parametrize("S", [64, 8], ids=["depth-0", "depth-1"])
def test_a_tree_without_a_split_colleague_pair_has_no_m2l_class(S, folded):
    """Depth <= 1: the only split node is the root, nothing is well
    separated, and the solve is all near field — and right."""
    pts = plummer(40, seed=3).positions
    tree = AdaptiveOctree(pts, S=S, max_level=1)
    assert tree.depth() == (0 if S == 64 else 1)
    lists = build_interaction_lists(tree, folded=folded)
    geom = far_field_geometry(tree, lists, CartesianExpansion(2))
    assert geom.m2l_classes == [] and geom.n_m2l == 0
    q = np.random.default_rng(3).uniform(0.5, 1.5, 40)
    kernel = GravityKernel(G=1.0)
    res = FMMSolver(kernel, order=2, folded=folded).solve(tree, q, lists=lists, gradient=True)
    assert res.op_counts["M2L"] == 0
    ref_pot = direct_evaluate(kernel, pts, pts, q, exclude_self=True)[:, 0]
    ref_grad = direct_evaluate(kernel, pts, pts, q, gradient=True, exclude_self=True)
    assert np.allclose(res.potential, ref_pot, rtol=1e-12, atol=0)
    assert np.allclose(res.gradient, ref_grad, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n_distinct", [300, (1 << 16) + 5])
def test_group_by_key_is_a_stable_sort_whether_or_not_the_ranks_fit_16_bits(n_distinct):
    rng = np.random.default_rng(n_distinct)
    values = rng.choice(10 * n_distinct, size=n_distinct, replace=False)
    keys = np.concatenate([values, rng.choice(values, size=2 * n_distinct)])
    order, ptr = _group_by_key(keys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert ptr.size == n_distinct + 1 and ptr[-1] == keys.size
    assert all(np.unique(keys[order[lo:hi]]).size == 1 for lo, hi in zip(ptr[:64], ptr[1:65]))


def _op_counts_by_walking(tree, lists):
    """``op_counts`` the way it was computed before the tables: Python sums
    over the dict views and the node list."""
    count = lambda nid: tree.nodes[nid].count  # noqa: E731
    internal = [n for n in tree.effective_nodes() if not tree.nodes[n].is_leaf]
    n_shifts = sum(len(tree.effective_children(n)) for n in internal)
    in_leaves = sum(count(l) for l in tree.leaves())
    return {
        "P2M": in_leaves,
        "M2M": n_shifts,
        "M2L": sum(len(v) for v in lists.v_list.values()),
        "L2L": n_shifts,
        "L2P": in_leaves,
        "P2P": sum(
            count(t) * sum(count(s) for s in srcs)
            for t, srcs in lists.near_sources.items()
        ),
        "M2P": sum(count(t) * len(ws) for t, ws in lists.w_list.items()),
        "P2L": sum(sum(count(x) for x in xs) for xs in lists.x_list.values()),
    }


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cloud=st.sampled_from(sorted(CLOUDS)),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
)
def test_op_counts_from_tables_equal_the_per_leaf_sums(cloud, seed, folded):
    pts, S = CLOUDS[cloud](seed)
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=folded)
    counts = lists.op_counts()
    assert not any(lists.materialized(name) for name in FAMILIES)
    assert counts == _op_counts_by_walking(tree, lists)
    assert all(type(v) is int for v in counts.values())
    assert lists.total_near_interactions() == sum(
        lists.interactions_of_leaf(t) for t in lists.near_sources
    )


def test_unfolded_op_counts_have_m2p_and_p2l():
    tree = AdaptiveOctree(plummer(1500, seed=11).positions, S=12)
    lists = build_interaction_lists(tree, folded=False)
    counts = lists.op_counts()
    assert counts["M2P"] > 0 and counts["P2L"] > 0
    assert counts == _op_counts_by_walking(tree, lists)


@pytest.mark.parametrize("backend", ["serial", "threads:2", "shards:2"])
def test_a_cold_solve_boxes_no_list_the_arrays_already_hold(backend):
    """Nothing on the solve path reads a dict view: ``colleagues`` stays a
    table on every back end and ``v_list`` — the 541k-entry one on the
    benchmark's uniform tree — on the two in-process ones.  (The shard
    engine sizes its partition and its modelled halo with
    ``repro.cluster``, the modelled machine, which reads the V, near, W and
    X dicts: one boxing per tree shape, outside the workers.)"""
    kind, _, n = backend.partition(":")
    engine = {
        "serial": lambda: None,
        "threads": lambda: ExecutionEngine(n_workers=int(n)),
        "shards": lambda: ProcessEngine(n_shards=int(n)),
    }[kind]()
    pts = uniform_cube(1500, seed=3).positions
    tree = AdaptiveOctree(pts, S=8)
    q = np.random.default_rng(4).uniform(0.5, 1.5, pts.shape[0])
    try:
        solver = FMMSolver(GravityKernel(G=1.0), order=3, engine=engine)
        res = solver.solve(tree, q, gradient=True)
        assert solver.degraded_runs == 0
    finally:
        if engine is not None:
            engine.close()
    assert res.op_counts["M2L"] > 0  # read from the tables, boxes nothing
    boxed = {name for name in FAMILIES if res.lists.materialized(name)}
    assert boxed == (set() if kind != "shards" else set(FAMILIES) - {"colleagues", "u_list"})
