"""Property tests: the batched far-field engine matches the scalar oracle.

:func:`repro.fmm.farfield.laplace_far_field` applies one operator per
*geometry class* over dense coefficient arrays — M2L in the (p+1)²-wide
translation space; the original per-node sweep over all ``n_coeffs``
coefficients is kept as
:func:`tests.oracles.farfield.laplace_far_field_scalar` exactly so the two
can be compared on randomized adaptive trees across both expansion
backends, both source channels, and both schemes.  Also covers the
subset contract of the per-body stage functions (what the shard schedule
rests on), the cache layers (geometry survives refits, dies on surgery)
and the per-op telemetry span contract.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions.generators import gaussian_blobs, plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.spherical import SphericalExpansion
from repro.fmm import farfield
from repro.fmm.evaluator import FMMSolver
from repro.fmm.farfield import far_field_geometry, laplace_far_field
from repro.kernels import LaplaceKernel
from repro.obs import Telemetry
from repro.runtime.engine import ExecutionEngine
from repro.tree import AdaptiveOctree, build_interaction_lists
from tests.clouds import CLOUDS
from tests.oracles.farfield import laplace_far_field_scalar
from tests.oracles.m2l import displacement_classes, m2l_locals

_FAMILIES = {
    "plummer": plummer,
    "blobs": gaussian_blobs,
    "uniform": uniform_cube,
}
_BACKENDS = {"cartesian": CartesianExpansion, "spherical": SphericalExpansion}


def _sources(n, seed, channel):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1, 1, n) if channel in ("monopole", "both") else None
    dip = None
    if channel in ("dipole", "both"):
        dip = rng.uniform(-1, 1, (n, 3))
        dip[rng.random(n) < 0.15] = 0.0  # exercise the zero-moment branch
    return q, dip


def _max_rel(a, b):
    scale = max(1.0, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    n=st.integers(min_value=40, max_value=700),
    S=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    folded=st.booleans(),
    backend=st.sampled_from(sorted(_BACKENDS)),
    channel=st.sampled_from(["monopole", "dipole", "both"]),
    order=st.integers(min_value=1, max_value=4),
)
def test_batched_matches_scalar_oracle(family, n, S, seed, folded, backend, channel, order):
    pts = _FAMILIES[family](n, seed=seed).positions
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=folded)
    exp = _BACKENDS[backend](order)
    q, dip = _sources(n, seed, channel)

    ref_pot, ref_grad = laplace_far_field_scalar(
        tree, lists, exp, charges=q, dipoles=dip, gradient=True
    )
    pot, grad = laplace_far_field(
        tree, lists, exp, charges=q, dipoles=dip, gradient=True
    )
    # the spherical dipole channel goes through a two-charge limit whose
    # +-O(1/h) terms are summed in a different (equally valid) order by
    # the batched path, so only ~1e-9 of the cancellation survives both
    # ways; every other combination agrees to near machine precision.
    tol = 5e-9 if (backend == "spherical" and dip is not None) else 1e-12
    assert _max_rel(pot, ref_pot) <= tol
    assert _max_rel(grad, ref_grad) <= tol


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    n=st.integers(min_value=40, max_value=500),
    S=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    backend=st.sampled_from(sorted(_BACKENDS)),
    channel=st.sampled_from(["monopole", "dipole", "both"]),
    order=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_per_body_stages_are_bitwise_subsettable(
    family, n, S, seed, backend, channel, order, data
):
    """P2M and L2P (potential + gradient) on an arbitrary leaf subset give
    bitwise the rows the full-set call gives — the property that lets a
    shard run them on its own leaves only (DESIGN.md §9)."""
    pts = _FAMILIES[family](n, seed=seed).positions
    tree = AdaptiveOctree(pts, S=S)
    n_leaves = len(tree.leaves())
    picked = data.draw(st.sets(st.integers(0, n_leaves - 1), max_size=n_leaves))
    _check_leaf_subset(tree, backend, order, channel, seed, sorted(picked))


@pytest.mark.parametrize("channel", ["monopole", "dipole"])
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_one_body_leaf_subset_is_bitwise(backend, channel):
    """The one shape the row-dot reduction treats differently (a single
    row: ``farfield._row_dots``), pinned without relying on hypothesis
    drawing it: S=1 makes every leaf one body, so a one-leaf subset is a
    one-row plan."""
    tree = AdaptiveOctree(plummer(60, seed=7).positions, S=1)
    for leaf in (0, 17, len(tree.leaves()) - 1):
        _check_leaf_subset(tree, backend, 4, channel, 7, [leaf])


def _check_leaf_subset(tree, backend, order, channel, seed, leaves):
    n = tree.n_bodies
    lists = build_interaction_lists(tree, folded=True)
    exp = _BACKENDS[backend](order)
    q, dip = _sources(n, seed, channel)
    geom = far_field_geometry(tree, lists, exp)
    plan = farfield.leaf_body_plan(tree, lists)
    leaves = np.array(leaves, dtype=np.int64)
    sub = plan.subset(leaves)
    shape = (geom.centers.shape[0], exp.n_coeffs)
    dtype = complex if backend == "spherical" else float

    def basis(p, kind):
        return farfield.leaf_basis(exp, p, kind, lambda key: (None, lambda v: v))

    def run_p2m(p):
        M = np.zeros(shape, dtype=dtype)
        p2m_basis = basis(p, "p2m") if q is not None else None
        farfield.p2m(geom, p, exp, M, charges=q, dipoles=dip, basis=p2m_basis)
        return M

    full, part = run_p2m(plan), run_p2m(sub)
    rows = geom.leaf_rows[leaves]
    assert np.array_equal(part[rows], full[rows])
    untouched = np.setdiff1d(np.arange(shape[0]), rows)
    assert not part[untouched].any()

    # L2P from arbitrary locals; the per-leaf gradient matmul runs whole
    rng = np.random.default_rng(seed)
    L = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        L += 1j * rng.standard_normal(shape)
    leaf_grad = [
        farfield.l2p_leaf_gradient(geom, L, A) for A in exp.l2p_gradient_matrices()
    ]

    def run_l2p(p):
        pot, grad = np.zeros(n), np.zeros((n, 3))
        farfield.l2p(geom, p, basis(p, "l2p"), L, pot, grad, leaf_grad)
        return pot, grad

    (pot, grad), (spot, sgrad) = run_l2p(plan), run_l2p(sub)
    assert np.array_equal(spot[sub.body_idx], pot[sub.body_idx])
    assert np.array_equal(sgrad[sub.body_idx], grad[sub.body_idx])
    outside = np.setdiff1d(np.arange(n), sub.body_idx)
    assert not spot[outside].any() and not sgrad[outside].any()


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_geometry_survives_refit_and_passes(backend):
    pts = plummer(500, seed=3).positions
    tree = AdaptiveOctree(pts, S=12)
    lists = build_interaction_lists(tree, folded=True)
    exp = _BACKENDS[backend](3)
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, 500)

    laplace_far_field(tree, lists, exp, charges=q)
    laplace_far_field(tree, lists, exp, charges=q, gradient=True)
    stats = lists.farfield_geometry_stats
    assert (stats["builds"], stats["hits"]) == (1, 1)

    # refit: bodies re-sort (generation bumps) but the shape — and with it
    # the geometry layer — survives; results still match the oracle
    sg = tree.structure_generation
    tree.points[:] += 1e-9 * rng.standard_normal(tree.points.shape)
    tree.refit()
    assert tree.structure_generation == sg  # jiggle kept the shape
    pot, _ = laplace_far_field(tree, lists, exp, charges=q)
    assert stats["builds"] == 1 and stats["hits"] == 2
    ref, _ = laplace_far_field_scalar(tree, lists, exp, charges=q)
    assert _max_rel(pot, ref) <= 1e-12


def test_geometry_invalidated_by_surgery():
    pts = uniform_cube(400, seed=7).positions
    tree = AdaptiveOctree(pts, S=10)
    lists = build_interaction_lists(tree, folded=True)
    exp = CartesianExpansion(3)

    g1 = far_field_geometry(tree, lists, exp)
    assert far_field_geometry(tree, lists, exp) is g1
    tree.mark_structure_dirty()  # what collapse/pushdown surgery stamps
    g2 = far_field_geometry(tree, lists, exp)
    assert g2 is not g1
    assert lists.farfield_geometry_stats["builds"] == 2


def test_geometry_cached_per_backend_and_order():
    pts = plummer(300, seed=11).positions
    tree = AdaptiveOctree(pts, S=14)
    lists = build_interaction_lists(tree, folded=True)
    far_field_geometry(tree, lists, CartesianExpansion(3))
    far_field_geometry(tree, lists, CartesianExpansion(4))
    far_field_geometry(tree, lists, SphericalExpansion(3))
    far_field_geometry(tree, lists, CartesianExpansion(3))
    stats = lists.farfield_geometry_stats
    assert (stats["builds"], stats["hits"]) == (3, 1)


def _m2l_of(p):
    """Run pass ``p`` up to and including M2L; returns ``p.locals_``."""
    p.p2m()
    for level in p.up_levels:
        for ci in level:
            p.m2m_delta(ci)
            p.m2m_merge(ci)
    p.m2l_reduce()
    for ci in range(p.n_m2l_classes):
        p.m2l_delta(ci)
        p.m2l_merge(ci)
    p.m2l_expand()
    return p.locals_


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_octet_m2l_agrees_with_the_per_displacement_class_loop(cloud, backend, order):
    """The shipped M2L — <= 13 level-free direction blocks over sibling
    octets and their mirror images, pairs read off the colleague table —
    leaves the locals the
    per-(level, displacement) loop over the V table leaves
    (``tests/oracles/m2l.py``), to rounding: <= 1e-12 of each coefficient's
    largest value."""
    pts, S = CLOUDS[cloud](seed=order)
    tree = AdaptiveOctree(pts, S=S)
    q = np.random.default_rng(order).uniform(-1, 1, pts.shape[0])
    for folded in (True, False):
        lists = build_interaction_lists(tree, folded=folded)
        exp = _BACKENDS[backend](order)
        p = farfield.FarFieldPass(tree, lists, exp, charges=q)
        got = _m2l_of(p)
        assert p.n_m2l_classes <= 13
        _keys, classes = displacement_classes(tree, lists, exp)
        assert sum(c[0].size for c in classes) == p.geom.n_m2l
        want = m2l_locals(exp, classes, p.multipoles)
        scale = np.abs(want).max(axis=0)
        assert (np.abs(got - want).max(axis=0) <= 1e-12 * scale).all()
        assert not got[0].any()  # the root has no far field


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_healthy_covers_the_translation_arrays(backend):
    """A non-finite value parked in the octet arrays M2L reads and writes
    (their own arrays on either back end: nothing aliases the coefficient
    arrays) fails the pass's guardrail."""
    tree = AdaptiveOctree(plummer(300, seed=5).positions, S=10)
    lists = build_interaction_lists(tree, folded=True)
    p = farfield.FarFieldPass(tree, lists, _BACKENDS[backend](3), charges=np.ones(300))
    p.p2m()
    p.m2l_reduce()
    assert p.healthy()
    assert not np.shares_memory(p.m2l_locals, p.locals_)
    assert p.m2l_locals.shape == (p.geom.octet_rows.size, 8 * (3 + 1) ** 2)
    p.m2l_locals[0, 0] = np.inf
    assert not p.healthy()


@pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
def test_span_applications_match_op_counts(folded):
    """Per-op spans carry the cost-model application units of op_counts,
    so ``C_op = time / applications`` calibration works on batched runs."""
    pts = plummer(600, seed=9).positions
    tree = AdaptiveOctree(pts, S=8)
    lists = build_interaction_lists(tree, folded=folded)
    rng = np.random.default_rng(9)
    q = rng.uniform(-1, 1, 600)

    tel = Telemetry()
    laplace_far_field(
        tree, lists, CartesianExpansion(3), charges=q, gradient=True,
        tracer=tel.tracer,
    )
    spans = {
        e["name"]: e["args"].get("applications")
        for e in tel.tracer.events
        if e.get("ph") == "X"
    }
    counts = lists.op_counts()
    expected_ops = ["P2M", "M2M", "M2L", "L2L", "L2P"]
    if not folded:
        expected_ops += [op for op in ("M2P", "P2L") if counts[op]]
    for op in expected_ops:
        assert spans[op] == counts[op], op
    # M2L is priced per V pair, whatever the sweep batches them into: the
    # span, the lists and a solve's result all carry the V table's size, so
    # C_M2L calibrated on either side of the octet form prices one thing
    n_v = sum(len(vs) for vs in lists.v_list.values())
    geom = far_field_geometry(tree, lists, CartesianExpansion(3))
    assert n_v > sum(c[0].size for c in geom.m2l_classes) > 0
    res = FMMSolver(LaplaceKernel(), order=3, folded=folded).solve(tree, q, lists=lists)
    assert spans["M2L"] == counts["M2L"] == res.op_counts["M2L"] == geom.n_m2l == n_v
    # ... and so does the task graph's op registry (the observed C_M2L)
    with ExecutionEngine(n_workers=2) as engine:
        solver = FMMSolver(LaplaceKernel(), order=3, folded=folded, engine=engine)
        solver.solve(tree, q, lists=lists)
        assert solver.last_engine_result.op_registry().timers["M2L"].count == n_v
