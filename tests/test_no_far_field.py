"""Solves over lists without a V pair run no far field.

With no well-separated pair no local expansion receives anything, so the
far field is exactly zero and :class:`~repro.fmm.farfield.FarFieldPass`
skips it (:func:`~repro.fmm.farfield.far_field_is_empty`): no geometry,
operator set, body plan or basis, no task, no span.  Each case holds, for
Laplace and the Stokeslet, on serial, ``threads:2`` and ``shards:2``:

* the result equals the solve with the stage DAG forced to run;
* serial and ``threads:2`` read no operator set (the store records no
  lookup) and build none of the far field's caches; the shard sessions
  still run their zero far field;
* no far-field span or task is emitted;
* ``op_counts`` — the paper's cost-model count, which still prices P2M,
  M2M, L2L and L2P — is the forced solve's.

A tree with exactly one V pair (both directions of it) runs the far field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import compact_plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.fmm import farfield
from repro.fmm.evaluator import FMMSolver
from repro.geometry.box import Box
from repro.kernels.laplace import GravityKernel
from repro.kernels.stokeslet_fmm import StokesletFMMSolver
from repro.obs import Telemetry
from repro.runtime.engine import ExecutionEngine, TaskGraphBuilder
from repro.runtime.shards import ProcessEngine
from repro.tree.lists import build_interaction_lists
from repro.tree.octree import AdaptiveOctree

FAR_OPS = ("P2M", "M2M", "M2L", "L2L", "L2P")
UNIT = Box((0.0, 0.0, 0.0), 1.0)  # what the generators fill


def _root_leaf():
    return AdaptiveOctree(uniform_cube(300, seed=1).positions, S=512, root_box=UNIT)


def _depth_one():
    """What the serve census makes of an n = 2000 request: S = 512, 8 leaves."""
    pts = compact_plummer(2000, seed=2, domain_size=1.0).positions
    return AdaptiveOctree(pts, S=512, root_box=UNIT)


def _coincident():
    pts = np.repeat(uniform_cube(200, seed=3).positions, 3, axis=0)
    return AdaptiveOctree(pts, S=128, root_box=UNIT)


def _one_octant():
    """Every body in the root's low octant: it splits, its children are
    all siblings, so every pair is adjacent."""
    pts = 0.5 * uniform_cube(1000, seed=4).positions - 0.25
    return AdaptiveOctree(pts, S=256, root_box=UNIT)


def _one_v_pair():
    """Two clusters in far corners of adjacent root octants: the two
    level-2 cells are children of colleagues and not adjacent."""
    rng = np.random.default_rng(5)
    a = 0.25 * rng.random((40, 3)) - 0.5
    b = a + (0.75, 0.0, 0.0)
    return AdaptiveOctree(np.vstack((a, b)), S=16, root_box=UNIT)


TREES = {
    "root_leaf": _root_leaf,
    "depth_one": _depth_one,
    "coincident": _coincident,
    "one_octant": _one_octant,
}
ENGINES = {
    "serial": lambda: None,
    "threads:2": lambda: ExecutionEngine(n_workers=2),
    "shards:2": lambda: ProcessEngine(n_shards=2, timeout_s=120.0),
}


@pytest.fixture(scope="module")
def engines():
    made = {name: make() for name, make in ENGINES.items()}
    yield made
    for engine in made.values():
        if engine is not None:
            engine.close()


def _solve(kernel, tree, engine):
    """``(solver, result, output arrays)`` of one solve on a fresh solver."""
    telemetry = Telemetry()
    if kernel == "laplace":
        solver = FMMSolver(GravityKernel(G=1.0, softening=1e-3), order=3,
                           telemetry=telemetry, engine=engine)
        q = np.random.default_rng(7).uniform(0.5, 1.5, tree.n_bodies)
        res = solver.solve(tree, q, gradient=True)
        out = (res.potential, res.gradient)
    else:
        solver = StokesletFMMSolver(order=3, telemetry=telemetry, engine=engine)
        f = np.random.default_rng(7).standard_normal((tree.n_bodies, 3))
        res = solver.solve(tree, f)
        out = (res.velocity,)
    assert solver.degraded_runs == 0
    return solver, res, out


def _far_spans(solver):
    names = {e.get("name") for e in solver.telemetry.tracer.events}
    if solver.last_engine_result is not None:
        names |= {iv.label.split(":")[0] for iv in solver.last_engine_result.intervals}
    return names & set(FAR_OPS)


def _forced(monkeypatch, kernel, tree):
    """The serial solve with the far field's stage DAG run regardless."""
    with monkeypatch.context() as m:
        m.setattr(farfield, "far_field_is_empty", lambda lists: False)
        return _solve(kernel, tree, None)


@pytest.mark.parametrize("backend", sorted(ENGINES))
@pytest.mark.parametrize("kernel", ["laplace", "stokeslet"])
@pytest.mark.parametrize("shape", sorted(TREES))
def test_a_tree_without_a_v_pair_runs_no_far_field(shape, kernel, backend, engines, monkeypatch):
    tree = TREES[shape]()
    forced_solver, forced, want = _forced(monkeypatch, kernel, tree)
    assert forced.lists.n_pairs("v_list") == 0
    assert forced_solver.list_cache.operators.stats()["misses"] == 1  # the DAG did run

    solver, res, got = _solve(kernel, tree, engines[backend])
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert res.op_counts == forced.op_counts
    assert not _far_spans(solver)
    if backend != "shards:2":
        stats = solver.list_cache.operators.stats()
        assert (stats["misses"], stats["hits"]) == (0, 0)
        assert not hasattr(res.lists, "farfield_geometry_stats")
        exp = solver.expansion
        for key, structural in (  # the far field's derived_cache slots
            (f"farfield_geometry:{exp.backend}:{exp.order}", True),
            ("farfield_body_plan", False),
            (f"farfield_basis:{exp.backend}:{exp.order}", False),
        ):
            assert res.lists.derived_cache(key, structural=structural)[0] is None, key


@pytest.mark.parametrize("backend", sorted(ENGINES))
@pytest.mark.parametrize("kernel", ["laplace", "stokeslet"])
def test_one_v_pair_runs_the_far_field(kernel, backend, engines):
    tree = _one_v_pair()
    solver, res, got = _solve(kernel, tree, engines[backend])
    assert res.lists.n_pairs("v_list") == 2  # one pair, listed from both ends
    assert res.lists.op_counts()["M2L"] == 2
    if backend != "shards:2":
        assert _far_spans(solver) == set(FAR_OPS)
        assert solver.list_cache.operators.stats()["misses"] == 1
    serial = _solve(kernel, tree, None)[2]
    for a, b in zip(got, serial):
        assert np.array_equal(a, b)


def test_an_empty_pass_declares_nothing_and_returns_zeros():
    """What each solver's combine reads: ``(n,)`` / ``(n, 3)`` for one
    channel, ``(n, k)`` / ``(n, k, 3)`` for ``k``; ``None`` where not asked."""
    tree = _depth_one()
    assert tree.depth() == 1
    lists = build_interaction_lists(tree)
    n = tree.n_bodies
    for charges, shapes in (
        (np.ones(n), ((n,), (n, 3))),
        (np.ones((n, 4)), ((n, 4), (n, 4, 3))),
    ):
        p = farfield.FarFieldPass(tree, lists, CartesianExpansion(3), charges=charges,
                                  gradient=True)
        g = TaskGraphBuilder()
        assert p.empty and p.add_tasks(g) is None and len(g) == 0
        for a, shape in zip(p.result(), shapes):
            assert a.shape == shape and not a.any()
    p = farfield.FarFieldPass(tree, lists, CartesianExpansion(3), charges=np.ones(n))
    assert p.result()[1] is None
    assert "operator_store" not in vars(lists)
