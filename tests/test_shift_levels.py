"""M2M and L2L as one gemm per tree level over sibling octets.

:func:`repro.fmm.farfield.m2m` / :func:`~repro.fmm.farfield.l2l` run a
level's shifts through its parents' octets with the operator set's two
level-free stacks.  Held here: the level plan the geometry builds, the
stages against the per-(level, octant) class loop they replaced
(``tests/oracles/shifts.py``), the one-task-per-level DAG, and degenerate
trees — a root leaf, one occupied octant per level down to ``max_level``,
coincident bodies — against the per-node oracle, with serial,
``threads:2`` and ``shards:2`` bitwise equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions.generators import plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.spherical import SphericalExpansion
from repro.geometry.box import Box
from repro.fmm.farfield import FarFieldPass, far_field_geometry, laplace_far_field
from repro.kernels import LaplaceKernel
from repro.runtime.engine import ExecutionEngine, TaskGraphBuilder
from repro.runtime.shards import ProcessEngine
from repro.tree import AdaptiveOctree, build_interaction_lists
from tests.oracles.farfield import laplace_far_field_scalar
from tests.oracles.shifts import l2l_locals, m2m_multipoles, shift_classes

BACKENDS = [CartesianExpansion, SphericalExpansion]


def _charges(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) if k == 1 else rng.uniform(-1, 1, (n, k))


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("Backend", BACKENDS)
def test_the_level_plan_covers_every_shift_once(Backend):
    tree = AdaptiveOctree(plummer(3000, seed=2).positions, S=16)
    lists = build_interaction_lists(tree)
    exp = Backend(4)
    geom = far_field_geometry(tree, lists, exp)
    tab = tree.node_table()
    levels = [s.level for s in geom.shift_levels]
    assert levels == list(range(max(levels), 0, -1))  # deepest first, no gap
    assert sum(s.child_rows.size for s in geom.shift_levels) == geom.n_shifts
    assert np.array_equal(
        np.sort(np.concatenate([s.child_rows for s in geom.shift_levels])), geom.child_rows
    )
    for s in geom.shift_levels:
        assert (tab.level[s.child_rows] == s.level).all()
        assert np.unique(s.parent_rows).size == s.parent_rows.size
        octet, octant = s.octet, s.octant
        assert np.array_equal(s.parent_rows[octet], tab.parent_row[s.child_rows])
        slots = 8 * octet + octant
        assert np.unique(slots).size == slots.size
        # the octant is the child's side along each axis
        shift = tab.centers[s.child_rows] - tab.centers[s.parent_rows[octet]]
        assert np.array_equal(shift > 0, (octant[:, None] >> np.arange(3) & 1) == 1)
    # the stages read the set's own arrays: nothing is rescaled per tree
    ops, _ = lists.operator_store.get(exp, tree.root_box.size)
    for s in geom.shift_levels:
        m2m, l2l = ops.shift_stacks(s.level)
        assert s.m2m is m2m and s.l2l is l2l


@pytest.mark.parametrize("Backend", BACKENDS)
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("cloud", ["plummer", "uniform"])
def test_level_stages_match_the_class_loop(Backend, k, cloud):
    """One gemm per level over octets == the per-(level, octant) class loop
    to 5e-15 of the array maximum, up and down (measured <= 2.3e-15 for the
    spherical M2M, whose eight per-octant adds are one dot — the Cartesian
    one sums its slots in the loop's order — and <= 2e-17 for L2L)."""
    pts = {"plummer": plummer, "uniform": uniform_cube}[cloud](2000, seed=5).positions
    tree = AdaptiveOctree(pts, S=12)
    lists = build_interaction_lists(tree)
    exp = Backend(5)
    p = FarFieldPass(tree, lists, exp, charges=_charges(len(pts), k))
    p.p2m()
    classes = shift_classes(tree, exp)
    want = m2m_multipoles(classes, p.multipoles)
    for shift in p.geom.shift_levels:
        p.m2m(shift)
    assert _rel(p.multipoles, want) <= 5e-15

    rng = np.random.default_rng(6)
    p.locals_[:] = rng.standard_normal(p.locals_.shape)
    want = l2l_locals(classes, p.locals_)
    for shift in reversed(p.geom.shift_levels):
        p.l2l(shift)
    assert _rel(p.locals_, want) <= 5e-15


def test_a_sweep_declares_one_shift_task_per_level_and_direction():
    tree = AdaptiveOctree(plummer(2000, seed=1).positions, S=32)
    lists = build_interaction_lists(tree)
    p = FarFieldPass(tree, lists, CartesianExpansion(3), charges=_charges(2000, 1))
    g = TaskGraphBuilder()
    p.add_tasks(g)
    depth = len(p.geom.shift_levels)
    assert depth >= 5
    for op in ("M2M", "L2L"):
        tasks = [t for t in g.nodes if t.op == op]
        assert len(tasks) == depth
        assert sum(t.applications for t in tasks) == p.geom.n_shifts


# ------------------------------------------------------------- degenerate trees
def _root_leaf():
    """``n <= S``: the root is the only leaf, there is no shift level."""
    return AdaptiveOctree(uniform_cube(20, seed=3).positions, S=32)


def _corner_chain():
    """One occupied split octant per level down to ``max_level``: a stack
    of coincident bodies in a corner, and at each scale ``2^-j`` a small
    group on the diagonal that settles in the opposite octant."""
    rng = np.random.default_rng(4)
    corner = np.full(3, 0.01)
    groups = [corner + 0.3 * 2.0**-j + rng.uniform(0, 0.02 * 2.0**-j, (3, 3)) for j in range(7)]
    pts = np.vstack([np.repeat(corner[None], 12, axis=0), *groups])
    return AdaptiveOctree(pts, S=8, root_box=Box((0.5, 0.5, 0.5), 1.0), max_level=8)


def _coincident():
    """Every body three times over."""
    return AdaptiveOctree(np.repeat(plummer(400, seed=7).positions, 3, axis=0), S=24)


DEGENERATE = {"root_leaf": _root_leaf, "corner_chain": _corner_chain, "coincident": _coincident}


@pytest.fixture(scope="module")
def shards2():
    with ProcessEngine(n_shards=2) as engine:
        yield engine


@pytest.fixture(scope="module")
def threads2():
    with ExecutionEngine(n_workers=2) as engine:
        yield engine


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("Backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_trees_through_the_level_stages(case, Backend, k, threads2, shards2, monkeypatch):
    """Each case against the per-node oracle (channel by channel) to 1e-12
    of the array maximum, serial == threads:2 == shards:2 bitwise, and the
    level stages against the class loop: the chain has no M2L pair at all
    (one split node per level), so its far field is zero and only that
    check reads its shifts."""
    tree = DEGENERATE[case]()
    lists = build_interaction_lists(tree)
    exp = Backend(4)
    geom = far_field_geometry(tree, lists, exp)
    if case == "root_leaf":
        assert tree.nodes[0].is_leaf and not geom.shift_levels
    if case == "corner_chain":
        assert [s.level for s in geom.shift_levels] == list(range(tree.max_level, 0, -1))
        split = [np.unique(s.parent_rows).size for s in geom.shift_levels]
        assert split == [1] * tree.max_level  # one split node per level
    q = _charges(tree.n_bodies, k)
    pot, grad = laplace_far_field(tree, lists, exp, charges=q, gradient=True)

    for c in range(k):
        qc = q if k == 1 else q[:, c]
        ref_pot, ref_grad = laplace_far_field_scalar(tree, lists, exp, charges=qc, gradient=True)
        got_pot, got_grad = (pot, grad) if k == 1 else (pot[:, c], grad[:, c])
        for got, ref in ((got_pot, ref_pot), (got_grad, ref_grad)):
            scale = np.abs(ref).max()
            assert np.abs(got - ref).max() <= 1e-12 * scale, case
            if scale == 0.0:
                assert not got.any()

    p = FarFieldPass(tree, lists, exp, charges=q, gradient=True)
    g = TaskGraphBuilder()
    p.add_tasks(g)
    threads2.run(g)
    for a, b in zip(p.result(), (pot, grad)):
        assert np.array_equal(a, b)

    kernel = LaplaceKernel()
    near_q = q if k == 1 else q[:, 0]
    far = {"potential": True, "gradient": True}
    sharded = shards2.solve(tree, lists, exp, kernel, q, near_q, far=far)
    for a, b in zip(sharded[:2], (pot, grad)):
        assert np.array_equal(a, b)

    # the level stages themselves, which a solve without a V pair skips
    monkeypatch.setattr("repro.fmm.farfield.far_field_is_empty", lambda lists: False)
    p = FarFieldPass(tree, lists, exp, charges=q)
    p.p2m()
    classes = shift_classes(tree, exp)
    want = m2m_multipoles(classes, p.multipoles)
    for shift in p.geom.shift_levels:
        p.m2m(shift)
    assert _rel(p.multipoles, want) <= 5e-15, case
    p.locals_[:] = np.random.default_rng(6).standard_normal(p.locals_.shape)
    want = l2l_locals(classes, p.locals_)
    for shift in reversed(p.geom.shift_levels):
        p.l2l(shift)
    assert _rel(p.locals_, want) <= 5e-15, case
