"""Tests for multi-index algebra."""

import math

import numpy as np
import pytest

from repro.expansions.multiindex import MultiIndexSet, _binom
from tests.oracles import expansions as oracle


class TestEnumeration:
    @pytest.mark.parametrize("p,expected", [(0, 1), (1, 4), (2, 10), (3, 20), (4, 35), (6, 84)])
    def test_count_is_binomial(self, p, expected):
        # |{alpha : |alpha| <= p}| = C(p+3, 3)
        assert len(MultiIndexSet(p)) == expected

    def test_sorted_by_degree(self):
        mis = MultiIndexSet(5)
        assert np.all(np.diff(mis.degrees) >= 0)

    def test_position_roundtrip(self):
        mis = MultiIndexSet(4)
        for i, ix in enumerate(mis.indices):
            assert mis.position(tuple(ix)) == i

    def test_factorials(self):
        mis = MultiIndexSet(4)
        i = mis.position((2, 1, 1))
        assert mis.factorials[i] == pytest.approx(2.0)
        j = mis.position((3, 0, 0))
        assert mis.factorials[j] == pytest.approx(6.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            MultiIndexSet(-1)


class TestPowers:
    def test_monomials(self, rng):
        mis = MultiIndexSet(3)
        v = rng.uniform(-2, 2, (5, 3))
        P = mis.powers(v)
        for i, (a, b, c) in enumerate(mis.indices):
            expected = v[:, 0] ** a * v[:, 1] ** b * v[:, 2] ** c
            assert np.allclose(P[:, i], expected)

    def test_order_zero(self):
        mis = MultiIndexSet(0)
        P = mis.powers(np.array([[1.0, 2.0, 3.0]]))
        assert P.shape == (1, 1)
        assert P[0, 0] == 1.0


class TestShiftMatrices:
    def test_m2m_shift_identity_at_zero(self):
        mis = MultiIndexSet(3)
        T = mis.m2m_matrix(np.zeros(3))
        assert np.allclose(T, np.eye(len(mis)))

    def test_m2m_composition(self, rng):
        # shifting by t1 then t2 equals shifting by t1 + t2
        mis = MultiIndexSet(3)
        t1 = rng.uniform(-1, 1, 3)
        t2 = rng.uniform(-1, 1, 3)
        T = mis.m2m_matrix(t2) @ mis.m2m_matrix(t1)
        assert np.allclose(T, mis.m2m_matrix(t1 + t2))

    def test_l2l_is_transpose_structure(self, rng):
        mis = MultiIndexSet(3)
        t = rng.uniform(-1, 1, 3)
        assert np.allclose(mis.l2l_matrix(t), mis.m2m_matrix(t).T)

    def test_l2l_exactly_translates_polynomial(self, rng):
        # a local expansion is a polynomial; translating must be exact
        mis = MultiIndexSet(4)
        L = rng.uniform(-1, 1, len(mis))
        t = rng.uniform(-0.5, 0.5, 3)
        L2 = mis.l2l_matrix(t) @ L
        y = rng.uniform(-2, 2, (10, 3))
        val_old = mis.powers(y) @ L  # sum L_b (y - 0)^b about origin
        val_new = mis.powers(y - t) @ L2  # about t
        assert np.allclose(val_old, val_new)


class TestTables:
    def test_m2l_index_table_sums(self):
        mis = MultiIndexSet(2)
        idx, coef = mis.m2l_tables()
        big = MultiIndexSet(4)
        for a in range(len(mis)):
            for b in range(len(mis)):
                s = mis.indices[a] + mis.indices[b]
                assert np.array_equal(big.indices[idx[a, b]], s)
                expected = math.prod(
                    _binom(int(s[k]), int(mis.indices[a][k])) for k in range(3)
                )
                assert coef[a, b] == pytest.approx(expected)

    def test_gradient_tables_differentiate(self, rng):
        mis = MultiIndexSet(4)
        L = rng.uniform(-1, 1, len(mis))
        y = rng.uniform(-1, 1, (1, 3))
        h = 1e-6
        for k, (src, dst, coef) in enumerate(mis.gradient_tables()):
            w = np.zeros(len(mis))
            np.add.at(w, dst, coef * L[src])
            analytic = (mis.powers(y) @ w)[0]
            e = np.zeros(3)
            e[k] = h
            numeric = ((mis.powers(y + e) - mis.powers(y - e)) @ L)[0] / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_raise_tables(self):
        mis = MultiIndexSet(2)
        big = MultiIndexSet(3)
        for k, (self_idx, raised) in enumerate(oracle.raise_tables(mis)):
            for i, r in zip(self_idx, raised):
                expect = mis.indices[i].copy()
                expect[k] += 1
                assert np.array_equal(big.indices[r], expect)


class TestBinom:
    @pytest.mark.parametrize("n,k,val", [(5, 2, 10), (6, 0, 1), (6, 6, 1), (3, 5, 0), (4, -1, 0)])
    def test_values(self, n, k, val):
        assert _binom(n, k) == val
