"""Incremental interaction-list repair: journal, caches, and observability.

The tentpole contract (repaired lists == scratch build) lives in the
property suites; this file covers the machinery around it: the surgery
journal's bookkeeping, the structural/derived-cache invalidation split,
the far-field partial-rebuild accounting (class-operator cache), the
near-field plan patching, the repair metrics/tracer wiring, and the
balancer-level counters.
"""

import numpy as np
import pytest

from repro.distributions.generators import gaussian_blobs
from repro.expansions.cartesian import CartesianExpansion
from repro.fmm.farfield import far_field_geometry, laplace_far_field
from repro.fmm.nearfield import build_near_field_plan, evaluate_near_field
from repro.kernels.laplace import LaplaceKernel
from repro.obs import MetricsRegistry, Tracer
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from repro.tree.lists import RepairIneligible, repair_interaction_lists
from repro.tree.octree import SurgeryRecord


def _tree(n=600, S=16, seed=5):
    """Blob trees keep a single op's affected set a small fraction of the
    tree; on a deep Plummer core the folded fold-expansion fan-out of one
    op legitimately spans most of a *small* tree and trips the repair
    economy cap (the property suites cover that regime with the cap
    lifted)."""
    return AdaptiveOctree(gaussian_blobs(n, seed=seed).positions, S=S)


def _deep_collapsible(tree):
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
        pytest.skip("no collapsible parent")
    return best


def _splittable_leaf(tree):
    """Deepest splittable leaf: a small cell whose pushdown perturbs a
    genuinely local neighbourhood (a shallow fat leaf's box can neighbour
    most of a clustered tree, which correctly trips the repair size cap)."""
    best = None
    for nid in tree.leaves():
        node = tree.nodes[nid]
        if node.count > 1 and node.level < tree.max_level:
            if best is None or node.level > tree.nodes[best].level:
                best = nid
    if best is None:
        pytest.skip("no splittable leaf")
    return best


# ----------------------------------------------------------------- journal
def test_journal_records_every_structural_bump():
    tree = _tree()
    s0 = tree.structure_generation
    nid = _deep_collapsible(tree)
    tree.collapse(nid)
    lid = _splittable_leaf(tree)
    tree.pushdown(lid)
    journal = tree.journal_since(s0)
    assert journal is not None
    # one record per structure_generation step, contiguous and in order
    assert [r.sgen for r in journal] == list(
        range(s0 + 1, tree.structure_generation + 1)
    )
    assert journal[0] == SurgeryRecord(s0 + 1, "collapse", nid)
    assert journal[-1].kind == "pushdown" and journal[-1].node == lid


def test_journal_since_rejects_truncation_and_future_stamps():
    tree = _tree()
    assert tree.journal_since(tree.structure_generation) == []
    assert tree.journal_since(tree.structure_generation + 1) is None  # future
    # overflow the ring buffer: the gap becomes unreplayable
    s0 = tree.structure_generation
    for _ in range(300):
        tree.mark_structure_dirty()
    assert tree.journal_since(s0) is None


def test_mark_structure_dirty_journals_a_dirty_record():
    tree = _tree()
    s0 = tree.structure_generation
    tree.mark_structure_dirty()
    (rec,) = tree.journal_since(s0)
    assert rec.kind == "dirty"
    lists = build_interaction_lists(tree, folded=True)
    tree.mark_structure_dirty()
    with pytest.raises(RepairIneligible):
        repair_interaction_lists(tree, lists, tree.journal_since(s0 + 1))


def test_empty_journal_is_a_noop_repair():
    tree = _tree()
    lists = build_interaction_lists(tree, folded=True)
    stats = repair_interaction_lists(tree, lists, [])
    assert stats.ops == 0 and stats.nodes_touched == 0


# ------------------------------------------------- derived-cache semantics
def test_structural_derived_dropped_on_repair_nonstructural_survives():
    tree = _tree()
    lists = build_interaction_lists(tree, folded=True)

    _, store_s = lists.derived_cache("shape_thing", structural=True)
    store_s("structural-value")
    _, store_g = lists.derived_cache("body_thing")
    store_g("generation-value")
    assert lists.derived_cache("shape_thing", structural=True)[0] is not None
    assert lists.derived_cache("body_thing")[0] is not None

    sgen = tree.structure_generation
    tree.pushdown(_splittable_leaf(tree))
    repair_interaction_lists(tree, lists, tree.journal_since(sgen))

    # structural entries are actively dropped (the shape they memoized is
    # gone) ...
    assert lists.derived_cache("shape_thing", structural=True)[0] is None
    assert "shape_thing" not in lists._derived
    # ... while generation-stamped entries stay in the dict and merely
    # revalidate lazily against the bumped generation
    assert "body_thing" in lists._derived
    value, _ = lists.derived_cache("body_thing")
    assert value is None  # generation moved, so it reads as expired


# --------------------------------------------- far-field partial rebuilds
def test_farfield_reports_partial_rebuild_after_single_pushdown():
    tree = _tree()
    cache = ListCache()
    lists = cache.get(tree, folded=True)
    exp = CartesianExpansion(3)

    far_field_geometry(tree, lists, exp)
    stats = lists.farfield_geometry_stats
    assert stats["builds"] == 1 and stats["partial_rebuilds"] == 0
    assert stats["op_builds"] == 29  # one whole set: 8 + 8 shifts, 13 blocks

    tree.pushdown(_splittable_leaf(tree))
    assert cache.get(tree, folded=True) is lists  # repaired in place
    assert cache.repairs == 1

    far_field_geometry(tree, lists, exp)
    # the rebuild is *partial*: rows re-derived, operators read from the
    # set — the lists object survived the repair, so its store did; the
    # classes a pushdown adds (a deeper level) need no new operator
    assert stats["builds"] == 2
    assert stats["partial_rebuilds"] == 1
    assert stats["op_hits"] > 0
    assert stats["op_builds"] == 29
    assert lists.operator_store is cache.operators
    assert cache.operators.stats()["entries"] == 1


def test_cold_solve_builds_each_class_once_then_repair_is_all_hits():
    from repro.fmm.evaluator import FMMSolver

    tree = _tree()
    solver = FMMSolver(LaplaceKernel(), order=3)
    solver.solve(tree, np.ones(tree.n_bodies), gradient=True)
    lists = solver.list_cache.get(tree, folded=True)
    stats = lists.farfield_geometry_stats
    geom = far_field_geometry(tree, lists, solver.expansion)  # a hit
    n_classes = len(geom.m2l_classes) + len(geom.up_classes) + len(geom.down_classes)
    assert 1 <= len(geom.m2l_classes) <= 13  # one per direction +-D, level-free
    assert stats["builds"] == 1
    assert stats["op_builds"] == 29 and stats["op_hits"] == 0

    # split a leaf and merge it back: the lists are repaired twice and the
    # structural layer is dropped, but every class of the (restored) shape
    # reads the set the first build assembled
    leaf = _splittable_leaf(tree)
    tree.pushdown(leaf)
    tree.collapse(leaf)
    assert solver.list_cache.get(tree, folded=True) is lists
    geom2 = far_field_geometry(tree, lists, solver.expansion)
    assert stats["builds"] == 2 and stats["partial_rebuilds"] == 1
    assert stats["op_builds"] == 29
    assert stats["op_hits"] == n_classes
    for (_, _, a), (_, _, b) in zip(geom.m2l_classes, geom2.m2l_classes):
        assert a is b


def test_farfield_results_exact_after_repair():
    tree = _tree(n=500, S=12, seed=9)
    cache = ListCache()
    lists = cache.get(tree, folded=True)
    exp = CartesianExpansion(3)
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, tree.n_bodies)
    laplace_far_field(tree, lists, exp, charges=q)

    tree.pushdown(_splittable_leaf(tree))
    tree.collapse(_deep_collapsible(tree))
    lists = cache.get(tree, folded=True)
    assert cache.repairs >= 1
    pot, _ = laplace_far_field(tree, lists, exp, charges=q)

    fresh = build_interaction_lists(tree, folded=True)
    ref, _ = laplace_far_field(tree, fresh, exp, charges=q)
    np.testing.assert_allclose(pot, ref, rtol=1e-12, atol=1e-12)


def test_farfield_rows_come_from_the_node_table_after_repair():
    """There is no row cache to keep in step with a repair: the rebuilt
    geometry's row state is the tree's current node table, and equals what
    fresh lists on the repaired tree give."""
    tree = _tree(n=800, S=12, seed=13)
    cache = ListCache()
    lists = cache.get(tree, folded=True)
    exp = CartesianExpansion(3)
    far_field_geometry(tree, lists, exp)

    tree.pushdown(_splittable_leaf(tree))
    assert cache.get(tree, folded=True) is lists
    geom = far_field_geometry(tree, lists, exp)
    tab = tree.node_table()
    assert geom.eff_rows is tab.ids and geom.centers is tab.centers
    assert np.array_equal(geom.eff_rows, tree.effective_nodes())
    ref = far_field_geometry(tree, build_interaction_lists(tree, folded=True), exp)
    assert np.array_equal(geom.leaf_rows, ref.leaf_rows)
    assert np.array_equal(geom.leaf_pos, ref.leaf_pos)
    assert geom.n_shifts == ref.n_shifts and geom.n_m2l == ref.n_m2l


def test_refit_materialization_journals_and_repairs():
    """Bodies drifting into pruned octants: refit materializes the missing
    children as replayable ("materialize", nid) records, and repairing the
    lists over that journal matches a scratch build exactly."""
    # shove a few bodies toward the root's far corner until a refit
    # actually materializes (fresh tree per attempt — a too-big drift
    # legitimately trips the repair economy cap, so walk the scales up
    # from gentle and keep the first one that both materializes and
    # stays repairable)
    rng = np.random.default_rng(21)
    tree = lists = journal = None
    recs = []
    for scale in (0.03, 0.08, 0.15, 0.3):
        cand = _tree(n=700, S=12, seed=21)
        cand_lists = build_interaction_lists(cand, folded=True)
        sgen = cand.structure_generation
        pts = cand.points.copy()
        k = rng.integers(0, cand.n_bodies, size=12)
        target = cand.root_box.center + 0.49 * cand.root_box.size * np.array(
            [1.0, -1.0, 1.0]
        ) / 2.0
        pts[k] = pts[k] + scale * (target - pts[k])
        cand.points = pts
        cand.refit()
        j = cand.journal_since(sgen)
        recs = [r for r in (j or []) if r.kind == "materialize"]
        if recs and j is not None:
            try:
                repair_interaction_lists(cand, cand_lists, j)
            except RepairIneligible:
                recs = []  # drift too large for this tree; try the next scale
                continue
            tree, lists, journal = cand, cand_lists, j
            break
    if tree is None:
        pytest.skip("no repairable refit materialization on this cloud")
    assert all(not tree.nodes[r.node].is_leaf for r in recs)
    assert all(r.kind != "dirty" for r in journal)
    fresh = build_interaction_lists(tree, folded=True)

    def same(a, b):  # membership, not append order (repairs append last)
        return {k: sorted(v) for k, v in a.items() if v} == {
            k: sorted(v) for k, v in b.items() if v
        }

    assert same(lists.v_list, fresh.v_list)
    assert same(lists.near_sources, fresh.near_sources)
    assert same(lists.w_list, fresh.w_list) and same(lists.x_list, fresh.x_list)

    exp = CartesianExpansion(3)
    q = rng.uniform(-1, 1, tree.n_bodies)
    pot, _ = laplace_far_field(tree, lists, exp, charges=q)
    ref, _ = laplace_far_field(tree, fresh, exp, charges=q)
    np.testing.assert_allclose(pot, ref, rtol=1e-12, atol=1e-12)


# ------------------------------------------------- near-field plan patching
def test_nearfield_plan_patched_after_repair_and_matches_reference():
    tree = _tree(n=500, S=12, seed=4)
    cache = ListCache()
    lists = cache.get(tree, folded=True)
    build_near_field_plan(tree, lists)
    stats = lists.nearfield_plan_stats
    assert stats["patched"] == 0

    tree.pushdown(_splittable_leaf(tree))
    assert cache.get(tree, folded=True) is lists
    plan = build_near_field_plan(tree, lists)
    # the rebuild reused the per-row signatures for every untouched row
    assert stats["patched"] == 1

    fresh = build_interaction_lists(tree, folded=True)
    ref_plan = build_near_field_plan(tree, fresh)
    assert plan.total_pairs == ref_plan.total_pairs
    assert np.array_equal(np.sort(plan.tgt_idx), np.sort(ref_plan.tgt_idx))

    kernel = LaplaceKernel(softening=0.05)
    rng = np.random.default_rng(4)
    q = rng.uniform(-1, 1, tree.n_bodies)
    pot, _ = evaluate_near_field(kernel, tree, lists, q)
    ref, _ = evaluate_near_field(kernel, tree, fresh, q)
    np.testing.assert_allclose(pot, ref, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ observability
def test_repair_metrics_and_tracer_span():
    tree = _tree()
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    cache = ListCache(tracer=tracer)
    cache.bind_metrics(registry)

    cache.get(tree, folded=True)
    tree.pushdown(_splittable_leaf(tree))
    cache.get(tree, folded=True)
    tree.mark_structure_dirty()
    cache.get(tree, folded=True)

    assert registry.counter("lists_repaired_total").value == 1
    assert registry.counter("lists_rebuilt_total").value == 2
    hist = registry.histogram("repair_nodes_touched")
    assert hist.count == 1 and hist.sum > 0
    spans = [e for e in tracer.events if e.get("name") == "list_repair"]
    assert len(spans) >= 1


def test_fgo_report_counts_repairs():
    from repro.balance.config import BalancerConfig
    from repro.balance.finegrained import fine_grained_optimize
    from repro.costmodel.coefficients import ObservedCoefficients

    class _MockExecutor:
        list_cache = ListCache()

        def time_prediction(self, tree):
            return 0.0

        def time_surgery(self, n):
            return 0.0

    tree = _tree(n=800, S=8, seed=2)
    # skew the coefficients so the optimizer wants pushdowns (GPU-bound)
    coeffs = ObservedCoefficients()
    coeffs.cpu = {op: 1e-9 for op in ("P2M", "M2M", "M2L", "L2L", "L2P", "M2P", "P2L")}
    coeffs.gpu_p2p = 1e-5
    report = fine_grained_optimize(
        tree,
        coeffs,
        _MockExecutor(),
        folded=True,
        config=BalancerConfig(fgo_max_rounds=2),
    )
    if report.rounds == 0:
        pytest.skip("optimizer found nothing to do on this tree")
    # every post-surgery lookup inside the optimizer came from the cache,
    # and at least the accepted-round lookups were repairs, not rebuilds
    assert report.list_repairs + report.list_rebuilds >= 1
    assert report.list_repairs >= 1
