"""The cold path built level by level is bit for bit what it replaced.

* The tree: :class:`~repro.tree.octree.AdaptiveOctree` splits a level with
  one ``searchsorted`` and numbers its nodes by one cumulative sum; the
  depth-first build it replaced is ``tests/oracles/tree.py``.  Every node
  (id, level, parent, children, ranges, key span, centre and size, flags),
  the node table it emits and its key spans must be the oracle's, on every
  input and after refit, pushdown and collapse.
* The lists: colleagues read off the octant table, V counted at build time
  and listed on first read; every table the batched-frontier builder's
  (``tests/oracles/lists.py``) bitwise and the per-pair oracle's rows.
* The operator set: one batched core assembly and one gather per
  direction block, byte for byte the per-displacement assembly
  (``tests/oracles/expansions.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance.finegrained import _restore, _snapshot
from repro.distributions.generators import plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.operators import OperatorSet
from repro.expansions.spherical import SphericalExpansion
from repro.fmm.evaluator import FMMSolver
from repro.geometry.box import Box
from repro.kernels import GravityKernel
from repro.machine import HeterogeneousExecutor, system_a
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from repro.tree.lists import FAMILIES
from repro.tree.uniform import UniformOctree
from tests.clouds import CLOUDS
from tests.oracles import expansions as expansions_oracle
from tests.oracles.lists import build_interaction_lists_frontier, build_interaction_lists_scalar
from tests.oracles.tree import RecursiveOctree, RecursiveUniformOctree


def _upper_faces(seed):
    # bodies on the root box's upper faces, edges and corner
    rng = np.random.default_rng(seed)
    pts = rng.random((200, 3))
    pts[:40, 0] = 1.0
    pts[40:80, 1] = 1.0
    pts[80:120, 2] = 1.0
    pts[120:130] = 1.0
    return pts, 4


#: ``name -> (points, S, tree kwargs)``
INPUTS = {
    **{
        f"{name}-{seed}": (*CLOUDS[name](seed), {})
        for name in sorted(CLOUDS)
        for seed in (0, 1)
    },
    "coincident-max_level-6": (np.repeat(uniform_cube(40, seed=2).positions, 4, axis=0), 2,
                               {"max_level": 6}),
    "n-equals-S": (plummer(16, seed=3).positions, 16, {}),
    "n-1": (np.array([[0.25, 0.5, 0.75]]), 1, {}),
    "one-octant": (uniform_cube(200, size=0.3, center=(0.8, 0.8, 0.8), seed=4).positions, 6,
                   {"root_box": Box((0.5, 0.5, 0.5), 1.0)}),
    "upper-faces": (*_upper_faces(5), {"root_box": Box((0.5, 0.5, 0.5), 1.0)}),
    "max_level-1": (plummer(300, seed=6).positions, 4, {"max_level": 1}),
}


def _node_fields(tree):
    return [
        (
            n.id, n.level, n.parent, n.children, n.lo, n.hi,
            int(n.key_lo), int(n.key_hi), type(n.key_lo), type(n.key_hi),
            n.center.tobytes(), n.size, n.is_leaf, n.hidden,
        )
        for n in tree.nodes
    ]


def _assert_same_tree(tree, ref):
    assert _node_fields(tree) == _node_fields(ref)
    assert (tree.generation, tree.structure_generation) == (
        ref.generation, ref.structure_generation
    )
    got, want = tree.node_table(), ref.node_table()
    for field in vars(want):
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field
        else:
            assert a == b, field
    assert tree._key_spans().tobytes() == ref._key_spans().tobytes()
    assert tree.leaves() == ref.leaves()
    assert tree.stats() == ref.stats()


def _walked_stats(tree):
    """``leaves`` / ``depth`` / leaf counts / ``stats`` by walking the
    nodes, as they were computed before they read the node table."""
    eff = tree.effective_nodes()
    leaves = [nid for nid in eff if tree.nodes[nid].is_leaf]
    counts = np.array([tree.nodes[x].count for x in leaves], dtype=np.int64)
    return leaves, max(tree.nodes[nid].level for nid in eff), counts, {
        "n_bodies": tree.n_bodies,
        "n_nodes": len(eff),
        "n_leaves": len(leaves),
        "depth": max(tree.nodes[nid].level for nid in eff),
        "S": tree.S,
        "leaf_count_max": int(counts.max(initial=0)),
        "leaf_count_mean": float(counts.mean()) if counts.size else 0.0,
    }


def _assert_stats_are_the_walk(tree):
    leaves, depth, counts, stats = _walked_stats(tree)
    assert tree.leaves() == leaves
    assert tree.depth() == depth
    tab = tree.node_table()
    got = tab.counts[tab.is_leaf]
    assert got.dtype == counts.dtype and got.tolist() == counts.tolist()
    assert tree.stats() == stats


def _mutate(tree, rng):
    """A refit that drifts the bodies, a pushdown of the heaviest leaf and
    a collapse, yielding after each."""
    lo, hi = tree.root_box.low, tree.root_box.high
    moved = np.clip(tree.points + rng.normal(scale=0.01, size=tree.points.shape), lo, hi)
    heavy = max(tree.leaves(), key=lambda l: tree.nodes[l].count)
    internal = [n for n in tree.effective_nodes() if n and not tree.nodes[n].is_leaf]
    tree.points = moved
    tree.refit()
    yield "refit"
    if tree.nodes[heavy].is_leaf and tree.nodes[heavy].level < tree.max_level:
        tree.pushdown(heavy)
    yield "pushdown"
    if internal and not tree.nodes[internal[-1]].is_leaf:
        tree.collapse(internal[-1])
    yield "collapse"


# ------------------------------------------------------------------ tree
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_level_build_is_the_depth_first_build_node_by_node(name):
    pts, S, kw = INPUTS[name]
    tree, ref = AdaptiveOctree(pts, S, **kw), RecursiveOctree(pts, S, **kw)
    _assert_same_tree(tree, ref)
    _assert_stats_are_the_walk(tree)
    steps = [_mutate(t, np.random.default_rng(7)) for t in (tree, ref)]
    for a, b in zip(*steps):
        assert a == b
        _assert_same_tree(tree, ref)
        _assert_stats_are_the_walk(tree)


@pytest.mark.parametrize("depth", [0, 1, 2, 4])
@pytest.mark.parametrize("cloud", ["plummer", "coincident", "one-octant"])
def test_uniform_level_build_is_the_depth_first_build(cloud, depth):
    pts, _ = CLOUDS[cloud](3)
    _assert_same_tree(UniformOctree(pts, depth), RecursiveUniformOctree(pts, depth))


def test_max_level_reached_by_coincident_bodies():
    pts, S, kw = INPUTS["coincident-max_level-6"]
    tree = AdaptiveOctree(pts, S, **kw)
    assert tree.depth() == 6 and tree.stats()["leaf_count_max"] > S
    assert all(tree.nodes[l].level == 6 for l in tree.leaves() if tree.nodes[l].count > S)


def test_stats_follow_out_of_band_flag_flips():
    # the fine-grained optimizer's rollback flips flags behind the surgery
    # API and declares it: the table-read statistics must follow
    tree = AdaptiveOctree(plummer(800, seed=2).positions, S=12)
    snap = _snapshot(tree)
    for nid in [n for n in tree.effective_nodes() if n and not tree.nodes[n].is_leaf][:3]:
        if not tree.nodes[nid].is_leaf:
            tree.collapse(nid)
    _assert_stats_are_the_walk(tree)
    _restore(tree, snap)
    _assert_stats_are_the_walk(tree)
    assert tree.stats() == RecursiveOctree(plummer(800, seed=2).positions, S=12).stats()


# ----------------------------------------------------------------- lists
def _assert_tables_equal(lists, ref):
    for name in FAMILIES:
        got, want = lists.table(name), ref.table(name)
        for field in ("keys", "counts", "values"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, field)


def _assert_same_rows(lists, ref):
    assert lists.colleagues == ref.colleagues
    assert lists.v_list == ref.v_list
    for name in ("u_list", "near_sources"):
        got, want = getattr(lists, name), getattr(ref, name)
        assert set(got) == set(want), name
        assert all(sorted(got[k]) == sorted(want[k]) for k in got), name


def _assert_lists_are_the_oracles(tree):
    lists = build_interaction_lists(tree)
    assert not lists.listed("v_list")
    frontier = build_interaction_lists_frontier(tree)
    assert lists.n_pairs("v_list") == frontier.table("v_list").values.size
    assert not lists.listed("v_list")  # counting derives nothing
    _assert_tables_equal(lists, frontier)
    assert lists.listed("v_list")
    _assert_same_rows(build_interaction_lists(tree), build_interaction_lists_scalar(tree))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_lists_are_the_frontier_builders_and_the_oracles(name):
    pts, S, kw = INPUTS[name]
    tree = AdaptiveOctree(pts, S, **kw)
    _assert_lists_are_the_oracles(tree)
    for _ in _mutate(tree, np.random.default_rng(3)):
        _assert_lists_are_the_oracles(tree)


@pytest.mark.parametrize("cloud", ["plummer", "disk", "one-octant"])
def test_lists_after_fine_grained_surgery_and_materialized_children(cloud):
    from repro.balance.finegrained import _collapse_candidates, _pushdown_candidates

    pts, S = CLOUDS[cloud](4)
    tree = AdaptiveOctree(pts, S)
    snap = _snapshot(tree)
    for nid in _collapse_candidates(tree, 3):
        tree.collapse(nid)
    _assert_lists_are_the_oracles(tree)
    for nid in _pushdown_candidates(tree, build_interaction_lists(tree), 3):
        if tree.nodes[nid].is_leaf and tree.nodes[nid].level < tree.max_level:
            tree.pushdown(nid)
    _assert_lists_are_the_oracles(tree)
    _restore(tree, snap)  # the rollback: flags flipped out of band
    _assert_lists_are_the_oracles(tree)
    # bodies move into octants that were empty at build time: refit
    # materializes leaves for them
    nodes_before = len(tree.nodes)
    box = tree.root_box
    moved = tree.points.copy()
    moved[: len(moved) // 4] = box.low + box.size * np.random.default_rng(1).random(
        (len(moved) // 4, 3)
    )
    tree.points = moved
    tree.refit()
    assert len(tree.nodes) > nodes_before
    _assert_lists_are_the_oracles(tree)


def test_lazy_v_is_memoized_and_its_views_agree():
    tree = AdaptiveOctree(plummer(2000, seed=9).positions, S=16)
    lists = build_interaction_lists(tree)
    counts = lists.op_counts()
    assert not lists.listed("v_list")
    v = lists.table("v_list")
    assert lists.table("v_list") is v
    assert counts["M2L"] == v.values.size == lists.n_pairs("v_list")
    assert v.keys.tolist() == lists.table("colleagues").keys.tolist()
    assert lists.v_list == build_interaction_lists_frontier(tree).v_list


def _recording_builder(made):
    def build(tree):
        made.append(build_interaction_lists(tree))
        return made[-1]

    return build


def test_one_shot_solves_never_list_v():
    tree = AdaptiveOctree(uniform_cube(3000, seed=1).positions, S=8)
    q = np.random.default_rng(2).random(3000)
    made = []
    res = FMMSolver(GravityKernel(), order=4, list_cache=ListCache(_recording_builder(made))).solve(
        tree, q, gradient=True
    )
    assert len(made) == 1 and res.op_counts["M2L"] == made[0].n_pairs("v_list") > 0
    assert not made[0].listed("v_list")
    assert not any(made[0].materialized(name) for name in FAMILIES)


def test_served_requests_never_list_v(monkeypatch):
    from repro.serve import BackgroundServer, ServeConfig, solve_direct
    from repro.serve import server
    from repro.tree import cache

    made = []
    monkeypatch.setattr(server, "choose_leaf_size", lambda *_: 32)
    monkeypatch.setattr(cache.ListCache.__init__, "__defaults__", (_recording_builder(made),))
    spec = {"kernel": "laplace", "n": 1500, "seed": 5, "order": 3}
    with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
        out = bg.client(in_process=True).solve(spec)
    direct = solve_direct(spec)
    assert np.array_equal(out["potential"], direct["potential"])
    assert len(made) == 2 and all(lists.n_pairs("v_list") > 0 for lists in made)
    assert not any(lists.listed("v_list") for lists in made)


def test_modeled_step_on_lazy_v_is_the_eager_ones():
    # the modeled machine's skeleton is V's one reader on collapse_sim
    tree = AdaptiveOctree(plummer(2000, seed=1).positions, S=24)
    steps = []
    for builder in (build_interaction_lists, build_interaction_lists_frontier):
        ex = HeterogeneousExecutor(system_a(timing_noise=0.05), order=4,
                                   kernel=GravityKernel(), seed=3)
        steps.append(ex.time_step(tree, builder(tree)))
    new, old = steps
    for field in ("cpu_time", "gpu_time", "per_gpu", "op_counts", "op_flops"):
        assert getattr(new, field) == getattr(old, field), field


# -------------------------------------------------------------- operators
@pytest.mark.parametrize("h_root", [1.0, 7.3])
@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("Backend", [CartesianExpansion, SphericalExpansion])
def test_batched_operator_set_is_the_per_displacement_assembly(Backend, order, h_root):
    exp = Backend(order)
    ops = OperatorSet.build(exp, h_root)
    want = expansions_oracle.operator_set_per_displacement(exp, h_root)
    assert len(ops) == len(want)
    for got, ref in zip(ops, want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("order", range(0, 9))
def test_spherical_m2l_scatter_cells_are_distinct(order):
    # what lets one ``+=`` stand for ``np.add.at``: no cell gets two terms
    exp = SphericalExpansion(order)
    out_idx, in_idx = exp._m2l_table[:2]
    cells = in_idx * exp.n_coeffs + out_idx
    assert np.unique(cells).size == cells.size
