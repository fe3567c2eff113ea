"""The far field's compiled leaf stages against the NumPy bodies they replace.

Over real (Cartesian) rows, three stage functions of
:mod:`repro.fmm.farfield` run in the library :mod:`repro.kernels._native`
builds: ``p2m`` (charges), ``l2p`` (potential and up to three gradient
axes in one pass per channel) and ``add_rows`` (every class merge).  The
contract is **bitwise** — each reproduces the summation order of its NumPy
body (``np.add.reduceat``'s pairwise sum, ``einsum``'s sequential row dot,
a plain add) — on the seven clouds, on subset plans, on one and on four
charge channels, and on the leaves that take another branch: empty, one
body, more than 128 bodies.  Under the ``p2p_impl`` fixture the stage runs
on each body and is compared with the NumPy body (the library patched
off), so the native leg is the contract and the NumPy leg runs the
fallback over the same degenerate plans.

Also held: nothing out of range, of the wrong dtype or of the wrong layout
reaches a C entry point, and a subset plan whose index arrays are fresh
temporaries survives a collection between building the arguments and the
call.
"""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest

from repro.distributions.generators import compact_plummer, plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.fmm import farfield
from repro.fmm.evaluator import FMMSolver
from repro.kernels import LaplaceKernel, _native
from repro.runtime.engine import ExecutionEngine
from repro.runtime.shards import ProcessEngine
from repro.tree import AdaptiveOctree, build_interaction_lists
from tests.clouds import CLOUDS
from tests.test_nearfield import WANTS


def _case(pts, S, order):
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree)
    exp = CartesianExpansion(order)
    geom = farfield.far_field_geometry(tree, lists, exp)
    return tree, geom, farfield.leaf_body_plan(tree, lists), exp


def _stages(geom, plan, exp, n, want, seed=0, k=1):
    """Bytes of P2M's multipoles and L2P's outputs over ``plan``, ``k``
    charge channels."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1, 1, (n, k))
    q[::7] = 0.0  # signed zeros through the sums
    basis = farfield.leaf_basis(exp, plan, lambda key: (None, lambda v: v))
    shape = (geom.centers.shape[0], k * exp.width)
    M = np.zeros(shape)
    farfield.p2m(geom, plan, exp, M, charges=q, basis=basis)
    L = rng.standard_normal(shape)
    gk = [farfield.l2p_leaf_gradient(geom, L, A) for A in exp.l2p_gradient_matrices()]
    pot = np.zeros((n, k)) if want[0] else None
    grad = np.zeros((n, k, 3)) if want[1] else None
    farfield.l2p(geom, plan, basis, L, pot, grad, gk)
    return [a.tobytes() for a in (M, pot, grad) if a is not None]


def _numpy(monkeypatch, fn):
    with monkeypatch.context() as patch:
        patch.setattr(_native, "_library", None)
        return fn()


def _plans(plan, geom):
    every_other = np.arange(0, geom.leaf_rows.size, 2)
    return {"full": plan, "every-other": plan.subset(every_other)}


# ------------------------------------------------------------ the bitwise contract
@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_leaf_stages_are_bitwise_the_numpy_bodies(p2p_impl, monkeypatch, cloud, order):
    """One charge channel (Laplace) and four (the Stokeslet's pass)."""
    pts, S = CLOUDS[cloud](seed=order)
    tree, geom, plan, exp = _case(pts, S, order)
    for k in (1, 4):
        for label, p in _plans(plan, geom).items():
            for want in WANTS.values():
                got = _stages(geom, p, exp, tree.n_bodies, want, k=k)
                ref = _numpy(monkeypatch, lambda: _stages(geom, p, exp, tree.n_bodies, want, k=k))
                assert got == ref, (k, label, want)


def _emptied(pts, S):
    """A tree whose first leaf lost every body to its last (a refit keeps
    the shape): one empty leaf."""
    tree = AdaptiveOctree(pts, S=S)
    first, last = (tree.nodes[i] for i in (tree.leaves()[0], tree.leaves()[-1]))
    moved = tree.order[first.lo:first.hi]
    tree.points[moved] = tree.points[tree.order[last.lo]]
    tree.refit()
    return tree


@pytest.mark.parametrize("leaf", ["empty", "one-body", "over-128"])
def test_the_branch_taking_leaves_are_bitwise(p2p_impl, monkeypatch, leaf):
    """An empty leaf (its row zeroed), one-body leaves (no pairwise sum at
    all; a one-leaf subset is a one-row plan) and leaves past 128 bodies
    (the recursive halving of NumPy's pairwise sum, as at ``collapse_sim``'s
    S = 246)."""
    if leaf == "empty":
        tree = _emptied(uniform_cube(800, seed=3).positions, 8)
    elif leaf == "one-body":
        tree = AdaptiveOctree(plummer(60, seed=7).positions, S=1)
    else:
        tree = AdaptiveOctree(compact_plummer(2000, seed=1).positions, S=246)
    lists = build_interaction_lists(tree)
    for order in (2, 4, 6):
        exp = CartesianExpansion(order)
        geom = farfield.far_field_geometry(tree, lists, exp)
        plan = farfield.leaf_body_plan(tree, lists)
        counts = np.diff(plan.ptr)
        assert {"empty": counts.min() == 0, "one-body": (counts == 1).all(),
                "over-128": counts.max() > 128}[leaf]
        plans = {**_plans(plan, geom), "one-leaf": plan.subset(np.array([int(counts.argmax())]))}
        for (label, p), k in itertools.product(plans.items(), (1, 4)):
            for want in WANTS.values():
                got = _stages(geom, p, exp, tree.n_bodies, want, k=k)
                ref = _numpy(monkeypatch, lambda: _stages(geom, p, exp, tree.n_bodies, want, k=k))
                assert got == ref, (label, order, want, k)


@pytest.mark.parametrize("k", [0, 40, 600], ids=["empty", "under-the-floor", "compiled"])
def test_add_rows_is_bitwise_the_fancy_add(p2p_impl, monkeypatch, k):
    """A merge below ``_ADD_ROWS_COMPILED_MIN`` elements stays NumPy's fancy
    add on either body — it is faster there — and one above goes to C."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((1000, 56))
    rows[::5] = -0.0
    idx = rng.choice(1000, k, replace=False)
    delta = rng.standard_normal((k, 56))
    delta[::3] = 0.0  # -0.0 + 0.0 is +0.0 on both sides
    assert (delta.size >= farfield._ADD_ROWS_COMPILED_MIN) == (k == 600)
    got = rows.copy()
    farfield.add_rows(got, idx, delta)
    ref = _numpy(monkeypatch, lambda: rows.copy())
    ref[idx] += delta
    assert got.tobytes() == ref.tobytes()


def test_threads_and_shards_are_serial_under_each_body(p2p_impl):
    """uniform 3k S=8 order 6: every merge, P2M and L2P of all three back
    ends run the same body, so threads:2 == shards:2 == serial bitwise."""
    pts = uniform_cube(3000, seed=6).positions
    q = np.random.default_rng(6).uniform(-1, 1, len(pts))
    tree, kernel = AdaptiveOctree(pts, S=8), LaplaceKernel(softening=1e-3)
    out = {"serial": FMMSolver(kernel, order=6).solve(tree, q, gradient=True)}
    with ExecutionEngine(n_workers=2) as eng:
        out["threads:2"] = FMMSolver(kernel, order=6, engine=eng).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2) as eng:
        solver = FMMSolver(kernel, order=6, engine=eng)
        out["shards:2"] = solver.solve(tree, q, gradient=True)
        assert solver.degraded_runs == 0 and solver.last_shard_result is not None
    got = {k: r.potential.tobytes() + r.gradient.tobytes() for k, r in out.items()}
    assert got["threads:2"] == got["serial"] == got["shards:2"]


# ------------------------------------------------------- nothing bad reaches C
@pytest.fixture
def unreachable(native_p2p, monkeypatch):
    """The library with every leaf entry point replaced by a tripwire."""

    def tripwire(*args):
        raise AssertionError("a C entry point was reached")

    lib = _native.library()._replace(p2m=tripwire, l2p=tripwire, add=tripwire)
    monkeypatch.setattr(_native, "_library", lib)
    return lib


def test_bad_leaf_stage_arguments_raise_before_any_c_runs(unreachable):
    tree, geom, plan, exp = _case(plummer(400, seed=2).positions, 16, 4)
    n, nc = tree.n_bodies, exp.width
    basis = farfield.leaf_basis(exp, plan, lambda key: (None, lambda v: v))
    rows = plan.leaf_rows(geom)
    q, M = np.ones((n, 1)), np.zeros((geom.centers.shape[0], nc))
    pot, grad = np.zeros((n, 1)), np.zeros((n, 1, 3))
    ids = np.arange(geom.leaf_rows.size)
    gk = [np.zeros((ids.size, nc))] * 3
    lib = unreachable

    def bad_plan(**fields):
        return farfield.LeafBodyPlan(**{**vars(plan), **fields})

    p2m_calls = [
        ("out of range", (plan, np.where(rows == rows.max(), len(M), rows), q, basis, exp.p2m_sign, M)),
        ("out of range", (bad_plan(body_idx=np.where(plan.body_idx == 0, n, plan.body_idx)), rows, q, basis, exp.p2m_sign, M)),
        ("out of range", (bad_plan(ptr=plan.ptr[::-1].copy()), rows, q, basis, exp.p2m_sign, M)),
        ("int64", (plan, rows.astype(np.int32), q, basis, exp.p2m_sign, M)),
        ("float64", (plan, rows, q.astype(np.float32), basis, exp.p2m_sign, M)),
        ("F-contiguous", (plan, rows, q, np.ascontiguousarray(basis), exp.p2m_sign, M)),
        ("C-contiguous", (plan, rows, q, basis, exp.p2m_sign, np.asfortranarray(M))),
        (rf"float64 \({n}, 2\)", (plan, rows, np.ones((n, 2)), basis, exp.p2m_sign, M)),
    ]
    for match, args in p2m_calls:
        with pytest.raises(ValueError, match=match):
            lib.leaf_p2m(*args)
    l2p_calls = [
        ("out of range", (plan, basis, np.where(rows == rows.max(), len(M), rows), M, pot, ids, gk, grad)),
        ("out of range", (plan, basis, rows, M, pot, ids + 1, gk, grad)),
        ("out of range", (bad_plan(body_idx=plan.body_idx - 1), basis, rows, M, pot, ids, gk, grad)),
        ("float64", (plan, basis, rows, M, pot, ids, gk, grad.astype(np.float32))),
        ("C-contiguous", (plan, basis, rows, M, pot, ids, gk, np.zeros((3, 1, n)).T)),
        ("writeable", (plan, basis, rows, M, np.broadcast_to(0.0, (n, 1)), ids, gk, grad)),
        (rf"float64 \({n}, 2\)", (plan, basis, rows, M, np.zeros((n, 2)), ids, gk, grad)),
    ]
    for match, args in l2p_calls:
        with pytest.raises(ValueError, match=match):
            lib.leaf_l2p(*args)
    idx, delta = np.arange(5), np.ones((5, nc))
    add_calls = [
        ("out of range", (M, idx - 1, delta)),
        ("out of range", (M, idx + len(M) - 4, delta)),
        ("int64", (M, idx.astype(np.int32), delta)),
        ("float64", (M, idx, delta.astype(np.float32))),
        ("C-contiguous", (np.asfortranarray(M), idx, delta)),
    ]
    for match, args in add_calls:
        with pytest.raises(ValueError, match=match):
            lib.add_rows(*args)
    # ... and the stage function hands a merge big enough for C straight through
    big = np.ones((farfield._ADD_ROWS_COMPILED_MIN, 2))
    with pytest.raises(ValueError, match="C-contiguous"):
        farfield.add_rows(np.asfortranarray(big), np.arange(len(big)), big)
    assert not M.any() and not pot.any() and not grad.any()


def test_temporary_subset_arguments_outlive_a_collection(native_p2p, monkeypatch):
    """Every array a leaf stage hands to C stays referenced across the call:
    the stages run on a subset plan built inline (its index arrays and
    leaf rows fresh temporaries), and before the C call a collection runs
    and zero-filled arrays of the same sizes take any freed memory — a
    dangling pointer would read them as index 0."""
    tree, geom, plan, exp = _case(uniform_cube(1500, seed=8).positions, 8, 4)
    lib, n = _native.library(), tree.n_bodies
    every_other = np.arange(0, geom.leaf_rows.size, 2)

    def collected(entry):
        def call(*args):
            gc.collect()
            litter = [np.zeros(k, dtype=np.int64) for k in (plan.ptr.size, n, geom.leaf_rows.size) * 4]
            out = entry(*args)
            del litter  # held across the call
            return out
        return call

    def run():
        return _stages(geom, plan.subset(every_other.copy()), exp, n, (True, True))

    ref = _numpy(monkeypatch, run)
    monkeypatch.setattr(_native, "_library", lib._replace(p2m=collected(lib.p2m), l2p=collected(lib.l2p)))
    assert run() == ref
