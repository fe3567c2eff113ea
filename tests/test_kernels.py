"""Tests for the interaction kernels and direct evaluation."""

import numpy as np
import pytest

from repro.kernels import (
    GravityKernel,
    LaplaceKernel,
    RegularizedStokesletKernel,
    direct_evaluate,
)


class TestLaplace:
    def test_single_pair_potential(self):
        k = LaplaceKernel()
        phi = k.evaluate(np.array([[2.0, 0, 0]]), np.array([[0.0, 0, 0]]), np.array([3.0]))
        assert phi[0, 0] == pytest.approx(1.5)

    def test_gradient_matches_finite_difference(self, rng):
        k = LaplaceKernel()
        src = rng.uniform(-1, 1, (20, 3))
        q = rng.uniform(-1, 1, 20)
        t = np.array([[2.0, 0.3, -0.4]])
        g = k.gradient(t, src, q)[0]
        h = 1e-6
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            num = (
                k.evaluate(t + e, src, q)[0, 0] - k.evaluate(t - e, src, q)[0, 0]
            ) / (2 * h)
            assert g[ax] == pytest.approx(num, rel=1e-5)

    def test_self_interaction_suppressed(self):
        k = LaplaceKernel()
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        q = np.ones(2)
        phi = k.evaluate(pts, pts, q, exclude_self=True)
        assert np.allclose(phi[:, 0], [1.0, 1.0])

    def test_softening_self_term(self):
        k = LaplaceKernel(softening=0.1)
        pts = np.array([[0.0, 0, 0]])
        self_term = k.self_interaction(pts, np.array([2.0]))
        assert self_term[0, 0] == pytest.approx(20.0)

    def test_softening_validation(self):
        with pytest.raises(ValueError):
            LaplaceKernel(softening=-1)


def _pairwise_reference(t, s, q, softening=0.0, exclude_self=False):
    """The plain ``(t, s, 3)`` formulation the fused kernel replaced.

    Returns ``(pot, grad, pot_scale, grad_scale)``; the scales are the
    sums of absolute per-pair contributions, i.e. what one ulp of
    accumulated round-off is measured against.
    """
    d = t[:, None, :] - s[None, :, :]
    r2 = np.einsum("tsk,tsk->ts", d, d) + softening**2
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.sqrt(r2)
    inv[~np.isfinite(inv)] = 0.0
    if exclude_self and t.shape[0] == s.shape[0]:
        np.fill_diagonal(inv, 0.0)
    terms = (inv**3 * q[None, :])[:, :, None] * d
    return (
        inv @ q,
        -terms.sum(axis=1),
        np.abs(inv * q[None, :]).sum(axis=1),
        np.abs(terms).sum(axis=1),
    )


#: round-off allowed between the two formulations, in units of eps times
#: the sum of absolute contributions: 8 for the potential (r2 and the row
#: sum are accumulated in another order); the gradient's weight is inv**3,
#: which carries three times inv's relative error
_ULPS = 8 * np.finfo(float).eps
_GRAD_ULPS = 3 * _ULPS

#: (nt, ns): single target, single source, nt not a multiple of the tile
#: height (16384 // 100 = 163 rows), ns over the tile budget (1-row tiles)
_PAIRWISE_SHAPES = [(1, 7), (9, 1), (400, 100), (5, 20000)]


class TestPairwise:
    @pytest.mark.parametrize("nt,ns", _PAIRWISE_SHAPES)
    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("want", [(True, False), (False, True), (True, True)])
    def test_matches_plain_reference(self, rng, nt, ns, softening, want):
        k = LaplaceKernel(softening=softening)
        t = rng.uniform(-1, 1, (nt, 3))
        s = rng.uniform(-1, 1, (ns, 3))
        q = rng.uniform(-1, 1, ns)
        pot, grad = k.pairwise(t, s, q, potential=want[0], gradient=want[1])
        ref_pot, ref_grad, pot_scale, grad_scale = _pairwise_reference(t, s, q, softening)
        if want[0]:
            assert pot.shape == (nt, 1)
            assert np.all(np.abs(pot[:, 0] - ref_pot) <= _ULPS * pot_scale)
        else:
            assert pot is None
        if want[1]:
            assert grad.shape == (nt, 3)
            assert np.all(np.abs(grad - ref_grad) <= _GRAD_ULPS * grad_scale)
        else:
            assert grad is None

    @pytest.mark.parametrize("make", [LaplaceKernel, lambda: GravityKernel(G=2.5, softening=0.01)])
    def test_evaluate_and_gradient_are_the_pairwise_outputs(self, rng, make):
        k = make()
        t = rng.uniform(-1, 1, (300, 3))
        s = rng.uniform(-1, 1, (90, 3))
        q = rng.uniform(0.1, 1, 90)
        pot, grad = k.pairwise(t, s, q, potential=True, gradient=True)
        assert np.array_equal(k.evaluate(t, s, q), pot)
        assert np.array_equal(k.gradient(t, s, q), grad)
        assert np.array_equal(k.pairwise(t, s, q, potential=True, gradient=False)[0], pot)
        assert np.array_equal(k.pairwise(t, s, q, potential=False, gradient=True)[1], grad)

    def test_gravity_scales_the_laplace_block(self, rng):
        t = rng.uniform(-1, 1, (40, 3))
        s = rng.uniform(-1, 1, (60, 3))
        q = rng.uniform(0.1, 1, 60)
        pot, grad = LaplaceKernel(softening=0.02).pairwise(t, s, q, gradient=True)
        gpot, ggrad = GravityKernel(G=3.0, softening=0.02).pairwise(t, s, q, gradient=True)
        assert np.array_equal(gpot, -3.0 * pot)
        assert np.array_equal(ggrad, 3.0 * grad)

    def test_coincident_pair_is_suppressed(self, rng):
        k = LaplaceKernel()
        s = rng.uniform(-1, 1, (50, 3))
        q = rng.uniform(0.1, 1, 50)
        t = np.vstack([s[17], rng.uniform(-1, 1, (3, 3))])  # target 0 sits on source 17
        pot, grad = k.pairwise(t, s, q, gradient=True)
        keep = np.arange(50) != 17
        ref_pot, ref_grad = k.pairwise(t[:1], s[keep], q[keep], gradient=True)
        assert np.isfinite(pot).all() and np.isfinite(grad).all()
        assert pot[0, 0] == pytest.approx(ref_pot[0, 0], rel=1e-14)
        assert grad[0] == pytest.approx(ref_grad[0], rel=1e-12)

    def test_nan_source_row(self, rng):
        # the potential drops the pair (its 1/r is non-finite); the gradient
        # multiplies the zero weight by a NaN separation, so NaN propagates
        # to every target -- which is what the NaN/Inf guardrail keys on
        k = LaplaceKernel()
        t = rng.uniform(-1, 1, (6, 3))
        s = rng.uniform(-1, 1, (30, 3))
        q = rng.uniform(0.1, 1, 30)
        s[4] = np.nan
        pot, grad = k.pairwise(t, s, q, gradient=True)
        ref_pot, ref_grad, pot_scale, _ = _pairwise_reference(t, s, q)
        assert np.all(np.abs(pot[:, 0] - ref_pot) <= _ULPS * pot_scale)
        assert np.isnan(ref_grad).all() and np.isnan(grad).all()

    @pytest.mark.parametrize("softening", [0.0, 0.05])
    def test_exclude_self_on_a_square_block_spanning_tiles(self, rng, softening):
        # 300 x 300 with 54-row tiles: the diagonal offset moves every tile
        k = LaplaceKernel(softening=softening)
        pts = rng.uniform(-1, 1, (300, 3))
        q = rng.uniform(0.1, 1, 300)
        pot, grad = k.pairwise(pts, pts, q, gradient=True, exclude_self=True)
        ref_pot, ref_grad, pot_scale, grad_scale = _pairwise_reference(
            pts, pts, q, softening, exclude_self=True
        )
        assert np.all(np.abs(pot[:, 0] - ref_pot) <= _ULPS * pot_scale)
        assert np.all(np.abs(grad - ref_grad) <= _GRAD_ULPS * grad_scale)
        if softening:
            # without exclude_self the softened self pair q/eps is present
            full = k.pairwise(pts, pts, q)[0]
            assert np.allclose(full[:, 0] - pot[:, 0], q / softening, rtol=1e-9)

    def test_empty_blocks(self):
        k = LaplaceKernel()
        pot, grad = k.pairwise(np.zeros((0, 3)), np.ones((4, 3)), np.ones(4), gradient=True)
        assert pot.shape == (0, 1) and grad.shape == (0, 3)
        pot, grad = k.pairwise(np.ones((2, 3)), np.zeros((0, 3)), np.zeros(0), gradient=True)
        assert np.array_equal(pot, np.zeros((2, 1))) and np.array_equal(grad, np.zeros((2, 3)))

    def test_base_class_default_is_evaluate_plus_gradient(self, rng):
        k = RegularizedStokesletKernel()
        t = rng.uniform(-1, 1, (12, 3))
        s = rng.uniform(-1, 1, (20, 3))
        f = rng.uniform(-1, 1, (20, 3))
        vel, none = k.pairwise(t, s, f)
        assert none is None
        assert np.array_equal(vel, k.evaluate(t, s, f))
        assert k.pairwise(t, s, f, potential=False)[0] is None


class TestGravity:
    def test_acceleration_direction(self):
        # a body at x=2 is pulled toward a mass at the origin (-x direction)
        k = GravityKernel(G=1.0)
        a = k.gradient(np.array([[2.0, 0, 0]]), np.array([[0.0, 0, 0]]), np.array([4.0]))
        assert a[0, 0] == pytest.approx(-1.0)  # G m / r^2 = 4/4
        assert a[0, 1] == pytest.approx(0.0)

    def test_potential_negative(self):
        k = GravityKernel(G=2.0)
        phi = k.evaluate(np.array([[1.0, 0, 0]]), np.array([[0.0, 0, 0]]), np.array([1.0]))
        assert phi[0, 0] == pytest.approx(-2.0)

    def test_momentum_conservation(self, rng):
        k = GravityKernel(G=1.0)
        pts = rng.uniform(-1, 1, (30, 3))
        m = rng.uniform(0.5, 2.0, 30)
        acc = k.gradient(pts, pts, m, exclude_self=True)
        # sum of m_i a_i = total force = 0 by Newton's third law
        assert np.allclose((m[:, None] * acc).sum(axis=0), 0.0, atol=1e-10)

    def test_laplace_scale(self):
        assert GravityKernel(G=3.0).laplace_scale == -3.0
        assert LaplaceKernel().laplace_scale == 1.0


class TestStokeslet:
    def test_velocity_along_force_on_axis(self):
        # a Stokeslet pointing in +x produces +x velocity everywhere on the x axis
        k = RegularizedStokesletKernel(epsilon=1e-3)
        u = k.evaluate(
            np.array([[1.0, 0, 0]]), np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]])
        )
        assert u[0, 0] > 0
        assert abs(u[0, 1]) < 1e-12 and abs(u[0, 2]) < 1e-12

    def test_on_axis_magnitude_matches_formula(self):
        # on the axis: u = f (r^2 + 2 eps^2 + r^2) / (8 pi mu (r^2+eps^2)^{3/2})
        eps, mu, r = 0.01, 1.3, 2.0
        k = RegularizedStokesletKernel(epsilon=eps, viscosity=mu)
        u = k.evaluate(
            np.array([[r, 0, 0]]), np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]])
        )
        expected = (2 * r**2 + 2 * eps**2) / (8 * np.pi * mu * (r**2 + eps**2) ** 1.5)
        assert u[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_finite_at_origin(self):
        k = RegularizedStokesletKernel(epsilon=0.1, viscosity=1.0)
        u = k.evaluate(np.zeros((1, 3)), np.zeros((1, 3)), np.array([[1.0, 0, 0]]))
        assert np.isfinite(u).all()
        assert u[0, 0] == pytest.approx(1.0 / (4 * np.pi * 0.1))

    def test_self_interaction_matches_r0_limit(self):
        k = RegularizedStokesletKernel(epsilon=0.05)
        f = np.array([[0.3, -0.2, 0.9]])
        pts = np.zeros((1, 3))
        self_term = k.self_interaction(pts, f)
        full = k.evaluate(pts, pts, f)
        assert np.allclose(self_term, full)

    def test_strength_shape_validation(self):
        k = RegularizedStokesletKernel()
        with pytest.raises(ValueError):
            k.evaluate(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))

    def test_cost_profile_m2l_4x(self):
        assert RegularizedStokesletKernel().cost_profile.weight("M2L") == 4.0
        assert LaplaceKernel().cost_profile.weight("M2L") == 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RegularizedStokesletKernel(epsilon=0.0)
        with pytest.raises(ValueError):
            RegularizedStokesletKernel(viscosity=-1.0)


# The compiled rows take a parameter as they are given it (a NaN eps^2
# would poison every pair), so a non-finite one is refused at construction.
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stokeslet_epsilon_must_be_finite(bad):
    with pytest.raises(ValueError, match="epsilon"):
        RegularizedStokesletKernel(epsilon=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stokeslet_viscosity_must_be_finite(bad):
    with pytest.raises(ValueError, match="viscosity"):
        RegularizedStokesletKernel(viscosity=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_laplace_softening_must_be_finite(bad):
    with pytest.raises(ValueError, match="softening"):
        LaplaceKernel(softening=bad)
    with pytest.raises(ValueError, match="softening"):
        GravityKernel(softening=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gravity_constant_must_be_finite(bad):
    with pytest.raises(ValueError, match="G must be finite"):
        GravityKernel(G=bad)


class TestDirect:
    def test_chunked_matches_unchunked(self, rng):
        k = LaplaceKernel()
        pts = rng.uniform(-1, 1, (150, 3))
        q = rng.uniform(-1, 1, 150)
        full = direct_evaluate(k, pts, pts, q, exclude_self=True, chunk=10_000)
        chunked = direct_evaluate(k, pts, pts, q, exclude_self=True, chunk=7)
        assert np.allclose(full, chunked)

    def test_exclude_self_regularized(self, rng):
        k = RegularizedStokesletKernel(epsilon=0.1)
        pts = rng.uniform(-1, 1, (20, 3))
        f = rng.uniform(-1, 1, (20, 3))
        with_self = direct_evaluate(k, pts, pts, f)
        without = direct_evaluate(k, pts, pts, f, exclude_self=True)
        delta = with_self - without
        assert np.allclose(delta, k.self_interaction(pts, f))

    def test_p2p_pair_and_self_consistency(self, rng):
        k = LaplaceKernel()
        a = rng.uniform(-1, 1, (10, 3))
        b = rng.uniform(2, 3, (8, 3))
        qa = rng.uniform(0.5, 1, 10)
        qb = rng.uniform(0.5, 1, 8)
        # evaluating a against (a, b) = self(a) + pair(a<-b)
        allpts = np.vstack([a, b])
        allq = np.concatenate([qa, qb])
        combined = direct_evaluate(k, a, allpts, allq, exclude_self=True)
        split = k.evaluate(a, a, qa, exclude_self=True) + k.evaluate(a, b, qb)
        assert np.allclose(combined, split)

    def test_gradient_path(self, rng):
        k = GravityKernel(G=1.0)
        pts = rng.uniform(-1, 1, (30, 3))
        m = np.ones(30)
        g = direct_evaluate(k, pts, pts, m, gradient=True, exclude_self=True)
        assert g.shape == (30, 3)
        assert np.allclose((m[:, None] * g).sum(axis=0), 0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "make_kernel, strength_shape",
        [
            (lambda: LaplaceKernel(), (25,)),
            (lambda: RegularizedStokesletKernel(epsilon=0.1), (25, 3)),
        ],
    )
    def test_output_dim_follows_gradient_flag(self, rng, make_kernel, strength_shape):
        """Regression: (n, 3) when gradient is requested, (n, value_dim) otherwise.

        The output buffer used to be sized by ``value_dim`` unconditionally,
        which broadcast-crashed scalar-kernel gradients into (n, 1).
        """
        k = make_kernel()
        pts = rng.uniform(-1, 1, (25, 3))
        s = rng.uniform(-1, 1, strength_shape)
        val = direct_evaluate(k, pts, pts, s, exclude_self=True)
        assert val.shape == (25, k.value_dim)
        grad = direct_evaluate(k, pts, pts, s, gradient=True, exclude_self=True)
        assert grad.shape == (25, 3)
        # chunking must not change either shape or value
        grad_chunked = direct_evaluate(
            k, pts, pts, s, gradient=True, exclude_self=True, chunk=4
        )
        assert np.allclose(grad, grad_chunked)
