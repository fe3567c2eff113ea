"""Repair-vs-rebuild benchmark: list surgery takes the repair path.

After a localized collapse/pushdown on a 50k-body tree the interaction
lists (plus the far-field geometry and the near-field plan that hang off
them) are refreshed two ways: through the journal-driven repair path and
through the full-rebuild baseline, ``ListCache(repair=False)``, which
restores the pre-repair rebuild-on-every-surgery contract exactly.  The
two paths run the *same* op sequence on structurally identical trees, so
the comparison is op-for-op.

Asserted: every refresh on the repair side was a repair (not a silent
fallback rebuild), the far-field geometry rebuilds were *partial* (rows
re-derived, operators read from the one operator set of the cache's
store — which the rebuild side reads too: a store is its ListCache's, not
its lists'), and the near-field planner patched rather than re-sorted its
rows.  The repair/rebuild time ratio is *recorded, not gated*: batched
operator assembly made the from-scratch rebuild ~10x cheaper and the
ratio read 0.94-1.07x (EXPERIMENTS.md); since the rebuild hands pair
tables on instead of boxed dicts while a repair edits dict views that the
next consumer re-flattens, it reads 0.55x (rebuild 548 -> 223 ms/op,
repair 683 -> 404).  ROADMAP item 6 decides whether the repair path stays.

Results append to ``BENCH_repair.json`` (uploaded as a CI artifact).
"""

import gc
import json
import time
from pathlib import Path

import _ledger
from repro.distributions.generators import plummer
from repro.expansions.cartesian import CartesianExpansion
from repro.fmm.farfield import far_field_geometry
from repro.fmm.nearfield import build_near_field_plan
from repro.tree import AdaptiveOctree, ListCache

_BENCH_REPAIR = Path(__file__).resolve().parents[1] / "BENCH_repair.json"


def _deepest_splittable(tree):
    best = None
    for nid in tree.leaves():
        node = tree.nodes[nid]
        if node.count > 1 and node.level < tree.max_level:
            if best is None or node.level > tree.nodes[best].level:
                best = nid
    return best


def _deepest_collapsible(tree):
    best = None
    for nid in tree.effective_nodes():
        node = tree.nodes[nid]
        if nid == 0 or node.is_leaf:
            continue
        kids = tree.effective_children(nid)
        if kids and all(tree.nodes[c].is_leaf for c in kids):
            if best is None or node.level > tree.nodes[best].level:
                best = nid
    return best


def test_bench_repair_vs_rebuild(benchmark):
    """Surgery refreshes repair rather than rebuild; the ratio is recorded."""
    n = 50_000
    pts = plummer(n, seed=11).positions
    # two structurally identical trees (same points, same S => same node
    # ids), one per cache policy, driven by the same op sequence
    tree_rep = AdaptiveOctree(pts, S=32)
    tree_reb = AdaptiveOctree(pts, S=32)
    exp = CartesianExpansion(4)
    cache_rep = ListCache()
    cache_reb = ListCache(repair=False)

    def refresh(cache, tree):
        lists = cache.get(tree, folded=True)
        far_field_geometry(tree, lists, exp)
        build_near_field_plan(tree, lists)
        return lists

    lists_rep = refresh(cache_rep, tree_rep)  # warm: full build both sides
    refresh(cache_reb, tree_reb)
    op_builds_warm = lists_rep.farfield_geometry_stats["op_builds"]

    n_ops = 8
    t_rep = t_reb = 0.0
    for i in range(n_ops):
        # alternate the balancer's two moves; ids are valid on both trees
        if i % 2 == 0:
            nid = _deepest_splittable(tree_rep)
            tree_rep.pushdown(nid)
            tree_reb.pushdown(nid)
        else:
            nid = _deepest_collapsible(tree_rep)
            tree_rep.collapse(nid)
            tree_reb.collapse(nid)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            lists_rep = refresh(cache_rep, tree_rep)
            t_rep += time.perf_counter() - t0
            t0 = time.perf_counter()
            refresh(cache_reb, tree_reb)
            t_reb += time.perf_counter() - t0
        finally:
            gc.enable()
    benchmark.pedantic(lambda: refresh(cache_rep, tree_rep), rounds=1, iterations=1)

    # every surgery refresh on the repair side must actually have repaired
    assert (cache_rep.repairs, cache_rep.builds) == (n_ops, 1)
    assert (cache_reb.repairs, cache_reb.builds) == (0, 1 + n_ops)
    stats = lists_rep.farfield_geometry_stats
    assert stats["partial_rebuilds"] == n_ops
    assert stats["op_hits"] > 0, "operator set never read across repairs"
    # one set each, assembled by the warm build: surgery assembles nothing,
    # whether the lists are repaired or rebuilt
    (ops,) = cache_rep.operators._sets.values()
    assert stats["op_builds"] == op_builds_warm == len(ops)
    assert cache_reb.operators.stats()["misses"] == 1
    assert lists_rep.nearfield_plan_stats["patched"] >= n_ops

    speedup = t_reb / t_rep
    record = {
        "bench": "repair_vs_rebuild_50k_plummer",
        "n": n,
        "S": 32,
        "order": 4,
        "n_ops": n_ops,
        "repairs": cache_rep.repairs,
        "rebuild_ms_total": round(t_reb * 1e3, 3),
        "repair_ms_total": round(t_rep * 1e3, 3),
        "rebuild_ms_per_op": round(t_reb / n_ops * 1e3, 3),
        "repair_ms_per_op": round(t_rep / n_ops * 1e3, 3),
        "speedup": round(speedup, 2),
        "farfield_partial_rebuilds": stats["partial_rebuilds"],
        "farfield_op_hits": stats["op_hits"],
        "farfield_op_builds_after_warm": stats["op_builds"] - op_builds_warm,
        "operators_per_set": len(ops),
        "nearfield_rows_patched": lists_rep.nearfield_plan_stats["patched"],
    }
    history = []
    if _BENCH_REPAIR.exists():
        history = json.loads(_BENCH_REPAIR.read_text())
    history.append(record)
    _BENCH_REPAIR.write_text(json.dumps(history, indent=2) + "\n")
    _ledger.record_to_ledger(record)

    print()
    print(
        f"surgery refresh, 50k plummer S=32: rebuild {t_reb / n_ops * 1e3:.1f} ms/op, "
        f"repair {t_rep / n_ops * 1e3:.1f} ms/op, speedup {speedup:.2f}x "
        f"({cache_rep.repairs} repairs, {stats['op_hits']} operators read from "
        f"one set of {len(ops)})"
    )
