"""Tests for the reusable Laplace far-field sweep (point charges)."""

import numpy as np
import pytest

from repro.distributions import uniform_cube
from repro.expansions import CartesianExpansion, SphericalExpansion
from repro.fmm.farfield import laplace_far_field
from repro.kernels import LaplaceKernel
from repro.tree import build_adaptive, build_interaction_lists


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(5)
    ps = uniform_cube(1000, seed=2)
    q = rng.uniform(-1, 1, 1000)
    tree = build_adaptive(ps.positions, S=30)
    lists = build_interaction_lists(tree)
    return ps.positions, q, tree, lists


def far_reference(pts, q, lists, tree):
    """Exact far-field reference: total field minus near-field pairs."""
    n = pts.shape[0]
    d = pts[:, None, :] - pts[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", d, d)
    with np.errstate(divide="ignore"):
        inv_r = 1.0 / np.sqrt(r2)
    np.fill_diagonal(inv_r, 0.0)
    total = inv_r @ q
    # subtract near-field pairs
    near = np.zeros(n)
    for t, sources in lists.near_sources.items():
        t_idx = tree.bodies(t)
        s_idx = np.concatenate([tree.bodies(s) for s in sources])
        sub_d = pts[t_idx][:, None, :] - pts[s_idx][None, :, :]
        sub_r2 = np.einsum("tsk,tsk->ts", sub_d, sub_d)
        with np.errstate(divide="ignore"):
            sub_inv = 1.0 / np.sqrt(sub_r2)
        sub_inv[~np.isfinite(sub_inv)] = 0.0
        near[t_idx] += sub_inv @ q[s_idx]
    return total - near


class TestChargesAndDipoles:
    def test_charges_only(self, setup):
        pts, q, tree, lists = setup
        pot, _ = laplace_far_field(tree, lists, CartesianExpansion(5), charges=q)
        ref = far_reference(pts, q, lists, tree)
        assert np.linalg.norm(pot - ref) / np.linalg.norm(ref) < 1e-3

    def test_requires_some_source(self, setup):
        """``charges`` is a required keyword: there is no default source."""
        _, _, tree, lists = setup
        with pytest.raises(TypeError, match="charges"):
            laplace_far_field(tree, lists, CartesianExpansion(3))

    def test_gradient_output(self, setup):
        pts, q, tree, lists = setup
        pot, grad = laplace_far_field(
            tree, lists, CartesianExpansion(4), charges=q, gradient=True
        )
        assert grad.shape == (pts.shape[0], 3)
        # consistency with the full-solver far field path: its potential
        # less the near field's
        from repro.fmm import FMMSolver
        from repro.fmm.nearfield import evaluate_near_field

        kernel = LaplaceKernel()
        res = FMMSolver(kernel, order=4).solve(tree, q, gradient=True, lists=lists)
        near_pot, _ = evaluate_near_field(kernel, tree, lists, q)
        assert np.allclose(pot, res.potential - near_pot, rtol=1e-10)

    def test_spherical_backend_matches(self, setup):
        _, q, tree, lists = setup
        cart, _ = laplace_far_field(tree, lists, CartesianExpansion(4), charges=q)
        sph, _ = laplace_far_field(tree, lists, SphericalExpansion(4), charges=q)
        assert np.linalg.norm(cart - sph) / np.linalg.norm(cart) < 1e-3
