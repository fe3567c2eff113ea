"""Cache correctness: generation stamps, invalidation, and list reuse.

Covers the one contract the cache has: every surgery op bumps the tree's
counters and invalidates cached lists, a pure refit keeps lists valid
(frozen-shape steps never rebuild), and a post-surgery lookup is a rebuild
that matches a from-scratch build node-for-node.
"""

import numpy as np
import pytest

from repro.distributions.generators import gaussian_blobs
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from tests.oracles.lists import build_interaction_lists_scalar


def _tree(n=600, S=20, seed=3):
    pts = gaussian_blobs(n, seed=seed).positions
    return AdaptiveOctree(pts, S=S)


def _first_internal(tree):
    for nid in tree.effective_nodes():
        if not tree.nodes[nid].is_leaf:
            return nid
    pytest.skip("tree has no internal node")


def _splittable_leaf(tree):
    for nid in tree.leaves():
        if tree.nodes[nid].count > 1 and tree.nodes[nid].level < tree.max_level:
            return nid
    pytest.skip("tree has no splittable leaf")


def _collapsible_parent(tree):
    """Deep internal node whose visible children are all leaves — the
    smallest possible collapse."""
    best = None
    for nid in tree.effective_nodes():
        node = tree.nodes[nid]
        if nid == 0 or node.is_leaf:
            continue
        kids = tree.effective_children(nid)
        if kids and all(tree.nodes[c].is_leaf for c in kids):
            if best is None or node.level > tree.nodes[best].level:
                best = nid
    if best is None:
        pytest.skip("tree has no collapsible parent")
    return best


def assert_lists_equal(a, b):
    """Node-for-node equality of every list family.

    Colleague/V candidate order is deterministic (parent-colleague-major),
    so those compare exactly; U/near are traversal-order dependent and
    compare as sets.
    """
    assert a.colleagues == b.colleagues
    assert a.v_list == b.v_list
    for name in ("u_list", "near_sources"):
        da, db = getattr(a, name), getattr(b, name)
        assert set(da) == set(db), name
        for k in da:
            assert sorted(da[k]) == sorted(db[k]), (name, k)


# ------------------------------------------------------------- generation
def test_construction_sets_counters():
    tree = _tree()
    assert tree.generation > 0
    assert tree.structure_generation >= 0


@pytest.mark.parametrize("op", ["collapse", "pushdown", "enforce_s", "refit", "mark"])
def test_every_surgery_op_bumps_generation(op):
    tree = _tree()
    gen0, sgen0 = tree.generation, tree.structure_generation
    if op == "collapse":
        tree.collapse(_first_internal(tree))
    elif op == "pushdown":
        tree.pushdown(_splittable_leaf(tree))
    elif op == "enforce_s":
        tree.enforce_s(tree.S)
    elif op == "refit":
        tree.refit()
    else:
        tree.mark_structure_dirty()
    assert tree.generation > gen0, op
    if op in ("collapse", "pushdown", "mark"):
        # shape definitely changed (or was declared changed)
        assert tree.structure_generation > sgen0, op
    if op == "refit":
        # refit keeps the effective shape: lists stay valid
        assert tree.structure_generation == sgen0


# ---------------------------------------------------------------- ListCache
def test_cache_hits_on_frozen_shape():
    tree = _tree()
    cache = ListCache()
    l1 = cache.get(tree)
    l2 = cache.get(tree)
    assert l1 is l2
    assert (cache.builds, cache.hits) == (1, 1)


def test_refit_does_not_invalidate_lists():
    tree = _tree()
    cache = ListCache()
    l1 = cache.get(tree)
    rng = np.random.default_rng(0)
    moved = tree.points + rng.normal(scale=1e-4, size=tree.points.shape)
    tree.points = np.clip(moved, tree.root_box.low, tree.root_box.high)
    tree.refit()
    assert cache.get(tree) is l1
    assert cache.builds == 1


@pytest.mark.parametrize("op", ["collapse", "collapse-root", "pushdown", "enforce_s", "mark"])
def test_stale_lists_refreshed_after_surgery(op):
    """Surgery never serves stale lists: after any shape change — a local
    collapse or pushdown, collapsing the root, an Enforce_S sweep, an
    out-of-band edit (``mark_structure_dirty``) — the lookup is one
    rebuild, and it matches a from-scratch build node-for-node."""
    tree = _tree()
    cache = ListCache()
    l1 = cache.get(tree)
    if op == "collapse":
        tree.collapse(_collapsible_parent(tree))
    elif op == "collapse-root":
        tree.collapse(0)
    elif op == "pushdown":
        tree.pushdown(_splittable_leaf(tree))
    elif op == "enforce_s":
        # force real surgery: a tighter S must push down at least one leaf
        ops = tree.enforce_s(max(1, tree.S // 4))
        if ops["collapses"] + ops["pushdowns"] == 0:
            pytest.skip("enforce_s was a no-op on this tree")
    else:
        tree.mark_structure_dirty()
    l2 = cache.get(tree)
    assert l2 is not l1
    assert (cache.builds, cache.hits, cache.repairs) == (2, 0, 0)
    assert cache.get(tree) is l2 and cache.hits == 1
    assert_lists_equal(l2, build_interaction_lists(tree))
    assert_lists_equal(l2, build_interaction_lists_scalar(tree))


@pytest.mark.parametrize("op", ["collapse", "pushdown"])
def test_repair_disabled_restores_rebuild_contract(op, monkeypatch):
    """Repair is gone for good, and the names the step-budget harness
    wraps still see it so: with its wrappers installed (a builder swapped
    in through ``__defaults__``, ``repair_interaction_lists`` replaced) a
    collapse or pushdown is one call of the swapped-in builder, the repair
    name is never called, and ``repairs`` reads 0."""
    import repro.tree.cache as cache_mod

    calls = {"build": 0, "repair": 0}

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        return build_interaction_lists(*args, **kwargs)

    def counting_repair(*args, **kwargs):
        calls["repair"] += 1
        return cache_mod.repair_interaction_lists(*args, **kwargs)

    assert len(ListCache.__init__.__defaults__) == 1
    monkeypatch.setattr(ListCache.__init__, "__defaults__", (counting_build,))
    monkeypatch.setattr(cache_mod, "repair_interaction_lists", counting_repair)
    tree = _tree()
    cache = ListCache()
    l1 = cache.get(tree)
    if op == "collapse":
        tree.collapse(_first_internal(tree))
    else:
        tree.pushdown(_splittable_leaf(tree))
    l2 = cache.get(tree)
    assert l2 is not l1
    assert calls == {"build": 2, "repair": 0}
    assert (cache.repairs, cache.builds) == (0, 2)
    assert_lists_equal(l2, build_interaction_lists(tree))


def test_cache_distinguishes_trees_and_drops_dead_entries():
    t1, t2 = _tree(seed=1), _tree(seed=2)
    cache = ListCache()
    l1, l2 = cache.get(t1), cache.get(t2)
    assert l1 is not l2 and len(cache) == 2
    del t1, l1
    import gc

    gc.collect()
    assert len(cache) == 1  # weakref callback evicted the dead tree


def test_two_caches_over_one_tree_keep_their_own_lists():
    """Each cache parks its lists in its own slot on the tree: a lookup
    never answers with another cache's lists or operator store."""
    from repro.distributions import plummer

    tree = AdaptiveOctree(plummer(800, seed=5).positions, S=24)
    a, b = ListCache(), ListCache()
    la, lb = a.get(tree), b.get(tree)
    assert la is not lb
    assert a.get(tree) is la and b.get(tree) is lb
    assert la.operator_store is a.operators and lb.operator_store is b.operators
    assert (a.hits, a.builds) == (1, 1) and (b.hits, b.builds) == (1, 1)
    a.clear()  # drops a's slot only
    assert b.get(tree) is lb and (b.hits, b.builds) == (2, 1)
    assert a.get(tree) is not la and (a.hits, a.builds) == (1, 2)


# ------------------------------------------------------------ derived data
def test_op_counts_memoized_and_refit_invalidated():
    tree = _tree()
    lists = build_interaction_lists(tree)
    c1 = lists.op_counts()
    assert lists.op_counts() == c1
    c1["P2P"] = -1  # returned copies are caller-owned
    assert lists.op_counts()["P2P"] != -1
    tree.refit()  # body-dependent derived data must restamp
    assert lists.op_counts() == lists.op_counts()


def test_near_field_work_items_memoized():
    from repro.gpu.partition import near_field_work_items

    tree = _tree()
    lists = build_interaction_lists(tree)
    i1 = near_field_work_items(lists)
    assert near_field_work_items(lists) is i1
    tree.refit()
    assert near_field_work_items(lists) is not i1


# ------------------------------------------------------- the leaf of a body
def test_leaf_of_body_tracks_mutations():
    """Refit re-sorts the bodies: each one is still in exactly one
    effective leaf, and that leaf's box holds its new position."""

    def check(tree):
        for b in (0, tree.n_bodies // 2, tree.n_bodies - 1):
            (leaf,) = [l for l in tree.leaves() if b in tree.bodies(l)]
            assert tree.nodes[leaf].box.contains(tree.points[b], atol=1e-12).all()

    tree = _tree()
    check(tree)
    rng = np.random.default_rng(1)
    moved = tree.points + rng.normal(scale=0.05, size=tree.points.shape)
    tree.points = np.clip(moved, tree.root_box.low, tree.root_box.high)
    tree.refit()
    check(tree)


# ------------------------------------------- operators handed tree to tree
def test_simulation_assembles_each_operator_once_across_tree_rebuilds():
    """The store is the cache's, not the lists': a simulation that rebuilds
    its tree again and again (the balancer's S search) assembles one
    operator set, and every later geometry build only reads it."""
    from repro import (
        BalancerConfig,
        GravityKernel,
        Simulation,
        SimulationConfig,
        compact_plummer,
        system_a,
    )

    built = []

    def recording_builder(tree):
        built.append((tree, build_interaction_lists(tree)))
        return built[-1][1]

    config = SimulationConfig(
        strategy="full", forces="fmm", order=3, dt=1e-4,
        balancer=BalancerConfig(gap_threshold_frac=0.15), n_workers=1,
    )
    sim = Simulation(
        compact_plummer(600, velocity_scale=1.5, seed=4),
        GravityKernel(G=1.0),
        system_a().with_resources(n_cores=10, n_gpus=4),
        config=config,
        list_cache=ListCache(recording_builder),
    )
    with sim:
        for _ in range(12):
            sim.step()
    assert len({id(tree) for tree, _ in built}) >= 3
    stats = [
        lists.farfield_geometry_stats
        for _, lists in built
        if hasattr(lists, "farfield_geometry_stats")  # the modelled machine solves nothing
    ]
    assert len(stats) >= 3
    assert sum(s["op_builds"] for s in stats) <= 2 * 15
    assert all(s["op_hits"] > 0 and s["op_builds"] == 0 for s in stats[1:])
    assert sim.list_cache.operators.stats()["entries"] == 1


def test_second_tree_over_the_same_root_box_builds_no_operator():
    from repro.fmm.evaluator import FMMSolver
    from repro.geometry.box import Box
    from repro.kernels import LaplaceKernel

    box = Box((0.0, 0.0, 0.0), 8.0)
    solver = FMMSolver(LaplaceKernel(), order=3)
    per_tree = []
    for seed, S in ((3, 20), (8, 12)):
        pts = gaussian_blobs(500, seed=seed).positions
        tree = AdaptiveOctree(pts, S=S, root_box=box)
        res = solver.solve(tree, np.ones(500), gradient=True)
        lists = solver.list_cache.get(tree)
        per_tree.append((lists.farfield_geometry_stats, res))
        # ... and reading the shared set is bitwise what a solver of its own does
        alone = FMMSolver(LaplaceKernel(), order=3).solve(tree, np.ones(500), gradient=True)
        assert np.array_equal(res.potential, alone.potential)
        assert np.array_equal(res.gradient, alone.gradient)
    (first, _), (second, _) = per_tree
    assert (first["op_builds"], first["op_hits"]) == (15, 0)  # 2 shift stacks + 13 blocks
    assert second["op_builds"] == 0 and second["op_hits"] > 0
