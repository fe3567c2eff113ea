"""Property tests for the solid-harmonic primitives of the spherical backend.

These pin down the two addition theorems and the three differentiation
ladder identities that every spherical operator is derived from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expansions.spherical import SphericalExpansion, _nm_index, _solid_tables
from tests.oracles import expansions as oracle

P = 4


def tables(v, p=P):
    return _solid_tables(np.asarray(v, dtype=float).reshape(1, 3), p)


coord = st.floats(-2.0, 2.0)


class TestAdditionTheorems:
    @given(coord, coord, coord, coord, coord, coord)
    @settings(max_examples=25, deadline=None)
    def test_regular_addition_exact(self, ax, ay, az, bx, by, bz):
        from hypothesis import assume

        a = np.array([ax, ay, az])
        b = np.array([bx, by, bz])
        # keep away from the degenerate corners where every term cancels
        # catastrophically and *both* sides of the identity lose all digits
        assume(np.linalg.norm(a) > 1e-3 and np.linalg.norm(b) > 1e-3)
        assume(np.linalg.norm(a + b) > 1e-2)
        Ra, _ = tables(a)
        Rb, _ = tables(b)
        Rab, _ = tables(a + b)
        ns, ms, pos = _nm_index(P)
        for j, (n, m) in enumerate(zip(ns, ms)):
            s = 0.0
            scale = 0.0
            for jj in range(0, n + 1):
                for k in range(-jj, jj + 1):
                    if abs(m - k) <= n - jj:
                        term = Ra[0, pos[(jj, k)]] * Rb[0, pos[(n - jj, m - k)]]
                        s += term
                        scale = max(scale, abs(term))
            # exact identity up to cancellation: tolerance scales with the
            # largest term (subtractive cancellation is unavoidable when
            # hypothesis picks adversarial near-cancelling coordinates)
            tol = 1e-7 * max(scale, abs(Rab[0, j]), 1e-12) + 1e-12
            assert abs(s - Rab[0, j]) <= tol

    def test_irregular_addition_converges(self, rng):
        # |a| << |b|: truncated series converges to I(a + b)
        a = rng.normal(size=3) * 0.05
        b = rng.normal(size=3)
        b = b / np.linalg.norm(b) * 3.0
        p = 8
        Ra, _ = tables(a, p)
        _, Ib = tables(b, p)
        _, Iab = tables(a + b, p)
        _, _, pos = _nm_index(p)
        for (n, m) in [(0, 0), (1, 1), (2, -1)]:
            s = 0.0
            for j in range(0, p - n + 1):
                for k in range(-j, j + 1):
                    if abs(m + k) <= n + j:
                        s += (
                            (-1.0) ** j
                            * np.conj(Ra[0, pos[(j, k)]])
                            * Ib[0, pos[(n + j, m + k)]]
                        )
            assert s == pytest.approx(Iab[0, pos[(n, m)]], rel=1e-6)


class TestLadderIdentities:
    def _num_grad(self, table_index, v, j, h=1e-6):
        out = []
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            hi = _solid_tables((v + e).reshape(1, 3), P)[table_index][0, j]
            lo = _solid_tables((v - e).reshape(1, 3), P)[table_index][0, j]
            out.append((hi - lo) / (2 * h))
        return out

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, -2), (4, 3)])
    def test_regular_ladder(self, n, m, rng):
        v = rng.normal(size=3)
        ns, ms, pos = _nm_index(P)
        R, _ = tables(v)
        dx, dy, dz = self._num_grad(0, v, pos[(n, m)])
        # dz R_n^m = R_{n-1}^m
        expect_z = R[0, pos[(n - 1, m)]] if abs(m) <= n - 1 else 0.0
        assert dz == pytest.approx(expect_z, rel=1e-5, abs=1e-8)
        # (dx + i dy) R_n^m = R_{n-1}^{m+1}
        expect_p = R[0, pos[(n - 1, m + 1)]] if abs(m + 1) <= n - 1 else 0.0
        assert dx + 1j * dy == pytest.approx(expect_p, rel=1e-5, abs=1e-8)
        # (dx - i dy) R_n^m = -R_{n-1}^{m-1}
        expect_m = -R[0, pos[(n - 1, m - 1)]] if abs(m - 1) <= n - 1 else 0.0
        assert dx - 1j * dy == pytest.approx(expect_m, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (2, -1), (3, 2)])
    def test_irregular_ladder(self, n, m, rng):
        v = rng.normal(size=3) + np.array([2.5, 0, 0])
        ns, ms, pos = _nm_index(P)
        _, I = tables(v)
        dx, dy, dz = self._num_grad(1, v, pos[(n, m)])
        assert dz == pytest.approx(-I[0, pos[(n + 1, m)]], rel=1e-5)
        assert dx + 1j * dy == pytest.approx(I[0, pos[(n + 1, m + 1)]], rel=1e-5)
        assert dx - 1j * dy == pytest.approx(-I[0, pos[(n + 1, m - 1)]], rel=1e-5)


def _fd_gradient(f, targets, rel_h: float = 1e-6):
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    h = rel_h * (1.0 + float(np.max(np.abs(pts))))
    grad = np.empty((pts.shape[0], 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        grad[:, k] = (f(pts + e) - f(pts - e)) / (2 * h)
    return grad


class TestAnalyticGradients:
    """The gradient matrices against central differences of the series,
    both applied to the production row bases."""

    def test_l2p_gradient_matches_fd(self, rng):
        exp = SphericalExpansion(5)
        L = rng.normal(size=exp.n_coeffs) + 1j * rng.normal(size=exp.n_coeffs)
        z = np.array([1.0, -0.5, 2.0])
        y = z + rng.uniform(-0.3, 0.3, (8, 3))
        analytic = oracle.l2p_gradient(exp, L, y, z)
        fd = _fd_gradient(lambda t: oracle.l2p(exp, L, t, z), y)
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-7)

    def test_m2p_gradient_matches_fd(self, rng):
        exp = SphericalExpansion(5)
        src = rng.uniform(-0.4, 0.4, (20, 3))
        q = rng.uniform(-1, 1, 20)
        M = oracle.p2m(exp, src, q, np.zeros(3))
        y = rng.uniform(-0.5, 0.5, (8, 3)) + np.array([3.0, 1.0, -2.0])
        analytic = oracle.m2p_gradient(exp, M, y, np.zeros(3))
        fd = _fd_gradient(lambda t: oracle.m2p(exp, M, t, np.zeros(3)), y)
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-7)
