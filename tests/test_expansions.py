"""Operator-level accuracy tests for both expansion backends.

Each operator is checked against direct summation on random clouds,
through the per-node helpers of :mod:`tests.oracles.expansions` (the dense
Cartesian operators over all ``n_coeffs``, the spherical sweep's own);
translation operators additionally satisfy exactness identities (M2M and
L2L are exact maps on truncated expansions), and the harmonic-width
operators the Cartesian sweep applies close on the harmonic subspace.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.expansions import CartesianExpansion, SphericalExpansion
from repro.expansions.derivatives import scaled_derivative_tensors
from repro.kernels import LaplaceKernel
from tests.clouds import CLOUDS
from tests.oracles import expansions as oracle

BACKENDS = [CartesianExpansion, SphericalExpansion]


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(11)
    src = rng.uniform(-0.5, 0.5, (60, 3))
    q = rng.uniform(-1, 1, 60)
    tgt = rng.uniform(-0.5, 0.5, (25, 3)) + np.array([4.0, 0.5, -1.0])
    ker = LaplaceKernel()
    phi = ker.evaluate(tgt, src, q)[:, 0]
    grad = ker.gradient(tgt, src, q)
    return src, q, tgt, phi, grad


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("Backend", BACKENDS)
class TestOperatorsAgainstDirect:
    def test_p2m_m2p(self, Backend, cloud):
        src, q, tgt, phi, _ = cloud
        exp = Backend(6)
        M = oracle.p2m(exp, src, q, np.zeros(3))
        assert rel(oracle.m2p(exp, M, tgt, np.zeros(3)), phi) < 1e-4

    def test_m2m(self, Backend, cloud):
        src, q, tgt, phi, _ = cloud
        exp = Backend(6)
        M = oracle.p2m(exp, src, q, np.zeros(3))
        c2 = np.array([0.25, -0.2, 0.15])
        M2 = oracle.m2m(exp, M, c2 - np.zeros(3))
        assert rel(oracle.m2p(exp, M2, tgt, c2), phi) < 1e-3

    def test_m2l_l2p(self, Backend, cloud):
        src, q, tgt, phi, _ = cloud
        exp = Backend(6)
        z = np.array([4.0, 0.5, -1.0])
        L = oracle.m2l(exp, oracle.p2m(exp, src, q, np.zeros(3)), z)
        assert rel(oracle.l2p(exp, L, tgt, z), phi) < 1e-4

    def test_l2l(self, Backend, cloud):
        src, q, tgt, phi, _ = cloud
        exp = Backend(6)
        z = np.array([4.0, 0.5, -1.0])
        L = oracle.m2l(exp, oracle.p2m(exp, src, q, np.zeros(3)), z)
        z2 = z + np.array([0.2, -0.1, 0.1])
        L2 = oracle.l2l(exp, L, z2 - z)
        assert rel(oracle.l2p(exp, L2, tgt, z2), phi) < 1e-3

    def test_p2l(self, Backend, cloud):
        src, q, tgt, phi, _ = cloud
        exp = Backend(6)
        z = np.array([4.0, 0.5, -1.0])
        L = oracle.p2l(exp, src, q, z)
        assert rel(oracle.l2p(exp, L, tgt, z), phi) < 1e-4

    def test_l2p_gradient(self, Backend, cloud):
        src, q, tgt, phi, grad = cloud
        exp = Backend(6)
        z = np.array([4.0, 0.5, -1.0])
        L = oracle.m2l(exp, oracle.p2m(exp, src, q, np.zeros(3)), z)
        assert rel(oracle.l2p_gradient(exp, L, tgt, z), grad) < 1e-2

    def test_m2p_gradient(self, Backend, cloud):
        src, q, tgt, phi, grad = cloud
        exp = Backend(6)
        M = oracle.p2m(exp, src, q, np.zeros(3))
        assert rel(oracle.m2p_gradient(exp, M, tgt, np.zeros(3)), grad) < 1e-2

    def test_error_decays_with_order(self, Backend, cloud):
        src, q, tgt, phi, _ = cloud
        errs = []
        for p in (2, 4, 6):
            exp = Backend(p)
            M = oracle.p2m(exp, src, q, np.zeros(3))
            errs.append(rel(oracle.m2p(exp, M, tgt, np.zeros(3)), phi))
        assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("Backend", BACKENDS)
class TestExactnessIdentities:
    def test_m2m_exact_coefficients(self, Backend, rng):
        # translating moments must equal recomputing them at the new center
        exp = Backend(4)
        src = rng.uniform(-0.4, 0.4, (30, 3))
        q = rng.uniform(-1, 1, 30)
        c2 = np.array([0.3, -0.1, 0.2])
        M_direct = oracle.p2m(exp, src, q, c2)
        M_shifted = oracle.m2m(exp, oracle.p2m(exp, src, q, np.zeros(3)), c2)
        assert np.allclose(M_shifted, M_direct, rtol=1e-9, atol=1e-11)

    def test_l2l_exact_values(self, Backend, rng):
        # L2L translates a polynomial exactly: values agree at any point
        exp = Backend(4)
        src = rng.uniform(-0.4, 0.4, (30, 3))
        q = rng.uniform(-1, 1, 30)
        z = np.array([5.0, 0.0, 0.0])
        L = oracle.p2l(exp, src, q, z)
        z2 = z + np.array([0.1, 0.2, -0.1])
        L2 = oracle.l2l(exp, L, z2 - z)
        y = z + rng.uniform(-0.3, 0.3, (10, 3))
        before, after = oracle.l2p(exp, L, y, z), oracle.l2p(exp, L2, y, z2)
        assert np.allclose(before, after, rtol=1e-8, atol=1e-12)


class TestBackendCrossAgreement:
    def test_same_field_both_backends(self, cloud):
        src, q, tgt, phi, _ = cloud
        z = np.array([4.0, 0.5, -1.0])
        fields = []
        for Backend in BACKENDS:
            exp = Backend(5)
            L = oracle.m2l(exp, oracle.p2m(exp, src, q, np.zeros(3)), z)
            fields.append(np.real(oracle.l2p(exp, L, tgt, z)))
        assert np.allclose(fields[0], fields[1], rtol=1e-8, atol=1e-12)

    def test_coefficient_counts(self):
        # Cartesian C(p+3,3) vs spherical (p+1)^2
        assert CartesianExpansion(4).n_coeffs == 35
        assert SphericalExpansion(4).n_coeffs == 25

    def test_invalid_order(self):
        for Backend in BACKENDS:
            with pytest.raises(ValueError):
                Backend(-1)


def test_both_back_ends_expose_one_interface_and_the_engine_reads_all_of_it():
    """A back end carries only the operators the engine runs: the two
    expose the same public callables, and each one is read somewhere under
    ``src/repro`` outside the two back-end modules (a per-node operator
    only the tests call belongs in ``tests/oracles/expansions.py``)."""

    def public_callables(exp):
        return {n for n in dir(exp) if not n.startswith("_") and callable(getattr(exp, n))}

    names = public_callables(CartesianExpansion(3))
    assert names == public_callables(SphericalExpansion(3))
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    backends = {src / "expansions" / "cartesian.py", src / "expansions" / "spherical.py"}
    text = "\n".join(p.read_text() for p in sorted(src.rglob("*.py")) if p not in backends)
    unread = sorted(n for n in names if not re.search(rf"\.{n}\b", text))
    assert not unread, f"back-end callables nothing under src/ reads: {unread}"


class TestLeafBases:
    """One ``powers`` call per body plan: P2M reads the L2P basis times the
    exact sign vector ``p2m_sign``, which is the P2M row ``powers(-rel) @
    R`` bit for bit."""

    @pytest.mark.parametrize("order", range(9))
    def test_p2m_basis_from_l2p_is_bitwise_p2m_basis(self, order, rng):
        exp = CartesianExpansion(order)
        sign = 1.0 - 2.0 * (exp.mis.degrees % 2)
        rel_ = rng.normal(scale=0.3, size=(257, 3))
        rel_[0] = 0.0  # signed zeros flip with the sign too
        rel_[1, 1] = -0.0
        for rows in (rel_, rel_[:1]):
            assert (exp.mis.powers(rows) * sign).tobytes() == exp.mis.powers(-rows).tobytes()
            # the fold mixes columns of one degree only (zeros may lose their sign)
            assert np.array_equal(exp.l2p_basis(rows) * exp.p2m_sign, exp.l2p_basis(-rows))
        assert SphericalExpansion(order).p2m_sign is None  # one table, both ends

    def test_leaf_basis_derives_p2m_from_the_cached_l2p(self, rng):
        from types import SimpleNamespace

        from repro.fmm.farfield import leaf_basis

        exp = CartesianExpansion(4)
        plan = SimpleNamespace(rel=rng.normal(size=(40, 3)))
        memo = {}

        def derived_cache(key):
            return memo.get(key), lambda v: memo.setdefault(key, v)

        calls = []
        real = exp.mis.powers
        exp.mis.powers = lambda v: calls.append(1) or real(v)
        basis = leaf_basis(exp, plan, derived_cache)
        assert leaf_basis(exp, plan, derived_cache) is basis
        assert len(calls) == 1 and len(memo) == 1
        assert np.array_equal(basis, exp.l2p_basis(plan.rel))
        assert np.array_equal(basis * exp.p2m_sign, exp.l2p_basis(-plan.rel))


def _addition_theorem_m2l(exp, M, d):
    """Spherical M2L of one multipole, term by term: ``L_j^k = (-1)^j
    sum_{n,m} M_n^m I_{n+j}^{m+k}(d)``."""
    from repro.expansions.spherical import _irregular_table, _nm_index

    _, _, pos = _nm_index(2 * exp.order)
    (I,) = _irregular_table(np.reshape(d, (1, 3)), 2 * exp.order)
    L = np.zeros(exp.n_coeffs, dtype=complex)
    for a, (j, k) in enumerate(zip(exp.ns, exp.ms)):
        for b, (n, m) in enumerate(zip(exp.ns, exp.ms)):
            if abs(m + k) <= n + j:
                L[a] += (-1.0) ** j * M[b] * I[pos[(n + j, m + k)]]
    return L


@pytest.mark.parametrize("Backend", BACKENDS)
class TestBatchedClassOperators:
    """``m2l_class_operators(D)`` is the stack of single-displacement builds,
    bit for bit: far-field results must not depend on which classes
    happened to miss the operator cache together."""

    @staticmethod
    def _displacements(rng, m):
        # what the far field passes: integer offsets (|k|_inf in 2..3) in
        # units of the cell size of a mix of levels
        k = rng.integers(-3, 4, size=(m, 3))
        k[np.abs(k).max(axis=1) < 2, 0] = 3
        return k * (1.0 / 2.0 ** rng.integers(1, 9, size=m))[:, None]

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_batch_equals_single_builds_bitwise(self, Backend, order, rng):
        exp = Backend(order)
        for m in (1, 63, 64, 65, 300):
            D = self._displacements(rng, m)
            batch = exp.m2l_class_operators(D)
            assert len(batch) == m
            for i in range(0, m, 1 if m <= 65 else 7):
                (single,) = exp.m2l_class_operators(D[i])
                assert np.array_equal(batch[i], single)

    def test_operator_applies_m2l(self, Backend, rng):
        # through the translation space where the back end has one: the
        # class operator acts on ``M @ R`` and its result expands by
        # ``R.T``; the reference is the dense Cartesian M2L, or the
        # spherical addition theorem summed term by term
        exp = Backend(4)
        R = exp.mis.harmonic_tables()[1] if Backend is CartesianExpansion else None
        D = self._displacements(rng, 5)
        M = rng.uniform(-1, 1, (5, exp.n_coeffs)).astype(exp.m2l_class_operators(D[0])[0].dtype)
        for i, op in enumerate(exp.m2l_class_operators(D)):
            if R is None:
                got, want = M[i] @ op, _addition_theorem_m2l(exp, M[i], D[i])
            else:
                got, want = ((M[i] @ R) @ op) @ R.T, oracle.dense_m2l(exp, M[i], D[i])[0]
            assert np.allclose(got, want)

    def test_each_operator_owns_its_memory(self, Backend, rng):
        # the cores come back as one stack that owns its memory: a view
        # into the derivative / harmonic table it was gathered from would
        # pin that table for as long as the cores live
        ops = Backend(3).m2l_class_operators(self._displacements(rng, 70))
        assert isinstance(ops, np.ndarray) and ops.shape[0] == 70
        assert ops.base is None and ops.flags.owndata and ops.flags.c_contiguous

    def test_zero_displacement_raises(self, Backend, rng):
        D = self._displacements(rng, 4)
        D[2] = 0.0
        with pytest.raises(ValueError, match="zero displacement"):
            Backend(3).m2l_class_operators(D)


def _far_displacements():
    """The 316 child-cell offsets M2L translates across: the +-3 cube less
    the +-1 cube of adjacent cells."""
    g = np.arange(-3, 4)
    d = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    return d[np.abs(d).max(axis=1) >= 2]


def _ldexp(core, exponents):
    """``core * 2**exponents`` entry by entry, exactly (complex too)."""
    if np.iscomplexobj(core):
        return np.ldexp(core.real, exponents) + 1j * np.ldexp(core.imag, exponents)
    return np.ldexp(core, exponents)


@pytest.mark.parametrize("Backend", BACKENDS)
class TestLevelFreeCores:
    """What lets one set of direction blocks serve every level (DESIGN.md
    §9): a core built from an integer multiple of a cell size ``h`` is, bit
    for bit, a power-of-two multiple of the core built from the same
    multiple of ``h / 2^l`` — entry ``(a, b)`` scales by ``2^(l (n_a + n_b
    + 1))`` with ``n`` the expansion's ``degrees``."""

    @pytest.mark.parametrize("order", [3, 4, 6, 10])
    @pytest.mark.parametrize("h", [1.0, 0.7381, 0.033])
    def test_cores_across_levels_are_exact_power_of_two_multiples(self, Backend, order, h):
        from repro.geometry.morton import MAX_MORTON_LEVEL

        exp = Backend(order)
        n = exp.degrees
        assert n.shape == ((order + 1) ** 2,) and n.max() == order
        per_level = n[:, None] + n[None, :] + 1
        d = _far_displacements()
        if order > 4:
            d = d[::9]
        root = exp.m2l_class_operators(d * h)
        levels = list(range(1, 11)) + [MAX_MORTON_LEVEL]  # no overflow at the deepest
        for level in levels if order <= 4 else (3, 10, MAX_MORTON_LEVEL):
            deep = exp.m2l_class_operators(d * (h / 2.0**level))
            for a, b in zip(root, deep):
                assert np.isfinite(b).all()
                assert np.array_equal(_ldexp(a, level * per_level), b)

    @pytest.mark.parametrize("order", range(3, 11))
    def test_shift_operators_across_levels_are_exact_power_of_two_multiples(self, Backend, order):
        """M2M / L2L are level-free too: octant ``o``'s block of the set's
        stack, applied to rows scaled by the exact powers of two of a
        level-``l`` shift, is **bitwise** ``rows @`` the operator the back
        end builds at the exact shift ``+-h_root / 2^(l+1)``."""
        from repro.expansions.operators import OperatorSet

        exp, h = Backend(order), 0.7381
        side = np.array([[o >> k & 1 for k in range(3)] for o in range(8)]) - 0.5
        nc = exp.width
        ops = OperatorSet(  # the shift half of ``OperatorSet.build``
            exp.backend, order, h,
            m2m=np.concatenate([exp.m2m_class_operator(-d) for d in side * (h / 2)]),
            l2l=np.concatenate([exp.l2l_class_operator(d) for d in side * (h / 2)], axis=1),
            m2l=(),
            degrees=exp.degrees,
        )
        assert ops.m2m.shape == (8 * nc, nc) and ops.l2l.shape == (nc, 8 * nc)
        n = exp.degrees
        assert n.shape == (nc,)
        rng = np.random.default_rng(order)
        rows = rng.standard_normal((37, nc))
        if np.iscomplexobj(ops.m2m):
            rows = rows + 1j * rng.standard_normal(rows.shape)
        for level in range(1, 7):
            up, down = np.ldexp(1.0, (level - 1) * n), np.ldexp(1.0, (1 - level) * n)
            m2m_at, l2l_at = ops.shift_stacks(level)
            for octant, sgn in enumerate(2 * side):
                d = sgn * (h / 2.0 ** (level + 1))  # child centre minus parent centre
                m2m, l2l = exp.m2m_class_operator(-d), exp.l2l_class_operator(d)
                block = slice(octant * nc, (octant + 1) * nc)
                got = ((rows * up) @ ops.m2m[block]) * down
                assert np.array_equal(got, rows @ m2m)
                got = ((rows * down) @ np.ascontiguousarray(ops.l2l[:, block])) * up
                assert np.array_equal(got, rows @ l2l)
                # the level's stacks are those exact-shift operators
                assert np.array_equal(m2m_at[block], m2m)
                assert np.array_equal(l2l_at[:, block], l2l)

    @pytest.mark.parametrize(
        "cloud, S, order", [("uniform", 8, 6), ("plummer", 32, 4), ("plummer2k", 32, 3)]
    )
    def test_exact_shifts_differ_from_centre_differences_at_rounding_level(
        self, Backend, cloud, S, order
    ):
        """Why the serial result moved (at rounding level) when the shifts
        became level-free: a shift used to be read off two absolute centres,
        ``centers[p] - centers[c]``, which rounds; on the three benchmark
        trees the operator a level's stage applies to an octant — the
        stack's block between the level's two power-of-two factors — is
        within 4e-15 of the centre-difference one (measured 1.7e-15; some
        levels are bitwise equal already)."""
        from repro.distributions.generators import plummer, uniform_cube
        from repro.fmm.farfield import far_field_geometry
        from repro.tree import AdaptiveOctree, build_interaction_lists

        pts = {
            "uniform": lambda: uniform_cube(10_000, seed=1).positions,
            "plummer": lambda: plummer(10_000, seed=1).positions,
            "plummer2k": lambda: plummer(2_000, seed=1).positions,
        }[cloud]()
        tree = AdaptiveOctree(pts, S)
        exp = Backend(order)
        geom = far_field_geometry(tree, build_interaction_lists(tree), exp)
        c, n, nc = geom.centers, exp.degrees, exp.width
        pairs = []
        for shift in geom.shift_levels:
            octet, octant = shift.octet, shift.octant
            for o in np.unique(octant):
                i = np.flatnonzero(octant == o)[0]
                ch, p = shift.child_rows[i], shift.parent_rows[octet[i]]
                block = slice(o * nc, (o + 1) * nc)
                pairs.append((shift.m2m[block], exp.m2m_class_operator(c[p] - c[ch])))
                pairs.append((shift.l2l[:, block], exp.l2l_class_operator(c[ch] - c[p])))
        assert len(pairs) >= 64
        for exact, rounded in pairs:
            assert np.abs(exact - rounded).max() <= 4e-15 * np.abs(exact).max()

    @pytest.mark.parametrize("order", [3, 4, 6])
    def test_the_antipodal_core_is_a_sign_flip(self, Backend, order):
        """``core(-d)[a, b] = (-1)^(n_a + n_b) core(d)[a, b]`` — exactly on
        the Cartesian back end (sign flips commute with the recurrence), to
        rounding on the spherical one (its azimuth turns by pi)."""
        exp = Backend(order)
        n = exp.degrees
        sign = (-1.0) ** (n[:, None] + n[None, :])
        d = _far_displacements() * 0.7381
        for fwd, back in zip(exp.m2l_class_operators(d), exp.m2l_class_operators(-d)):
            if Backend is CartesianExpansion:
                assert np.array_equal(fwd * sign, back)
            else:
                assert np.allclose(fwd * sign, back, rtol=1e-12, atol=1e-14 * np.abs(fwd).max())


def _dense_m2l_operator(exp, displacement):
    """The full ``n_coeffs x n_coeffs`` row-applied M2L operator — what
    ``m2l_class_operators`` returned before it was cut to its core."""
    idx, coef = exp.mis.m2l_tables()
    (row,) = scaled_derivative_tensors(np.reshape(displacement, (1, 3)), 2 * exp.order)
    return row[idx] * coef


def _col_rel(a, b):
    """Largest error of ``a`` against ``b``, each column (coefficient) on
    its own scale; a column that is zero on both sides reads 0."""
    scale = np.maximum(np.abs(b).max(axis=0), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b).max(axis=0) / scale))


@pytest.mark.parametrize("order", range(9))
class TestHarmonicReduction:
    """M2L acts in the (p+1)^2-dimensional space of harmonic expansions
    (DESIGN.md §9): ``keep`` / ``R`` of ``MultiIndexSet.harmonic_tables``,
    the ``keep x keep`` cores of ``m2l_class_operators``.  Orders 0 and 1
    are the identity case (every coefficient is independent)."""

    def test_tables(self, order):
        mis = CartesianExpansion(order).mis
        keep, R = mis.harmonic_tables()
        assert R.shape == (mis.n, (order + 1) ** 2) and keep.size == R.shape[1]
        assert np.array_equal(R[keep], np.eye(keep.size))
        assert np.array_equal(keep, np.nonzero(mis.indices[:, 2] <= 1)[0])
        # block-diagonal by degree
        assert not R[mis.degrees[:, None] != mis.degrees[keep][None, :]].any()
        if order < 2:
            assert mis.n == keep.size

    def test_expanded_rows_satisfy_the_trace_relation(self, order, rng):
        mis = CartesianExpansion(order).mis
        keep, R = mis.harmonic_tables()
        full = rng.standard_normal((6, keep.size)) @ R.T
        scale = np.abs(full).max()
        for g in mis.indices[mis.degrees <= order - 2]:
            up = [g + 2 * np.eye(3, dtype=int)[i] for i in range(3)]
            trace = sum(
                (g[i] + 2) * (g[i] + 1) * full[:, mis.position(tuple(up[i]))]
                for i in range(3)
            )
            assert np.abs(trace).max() <= 1e-13 * (order + 2) ** 2 * scale

    def test_cores_are_the_keep_block_of_the_dense_operator(self, order, rng):
        exp = CartesianExpansion(order)
        keep, _ = exp.mis.harmonic_tables()
        D = TestBatchedClassOperators._displacements(rng, 9)
        for d, core in zip(D, exp.m2l_class_operators(D)):
            assert np.array_equal(core, _dense_m2l_operator(exp, d)[np.ix_(keep, keep)])

    def test_reduced_m2l_equals_dense_m2l(self, order, rng):
        exp = CartesianExpansion(order)
        R = exp.mis.harmonic_tables()[1]
        # one level (unit cells), so a coefficient has one scale across rows
        D = rng.integers(-3, 4, size=(12, 3)).astype(float)
        D[np.abs(D).max(axis=1) < 2, 0] = 3.0
        src = rng.uniform(-0.5, 0.5, (12, 20, 3))
        moments = {
            "random": rng.uniform(-1, 1, (12, exp.n_coeffs)),
            "monopole": np.stack(
                [oracle.p2m(exp, x, rng.uniform(-1, 1, 20), np.zeros(3)) for x in src]
            ),
        }
        for name, M in moments.items():
            Mh = M @ R
            via_cores = np.stack(
                [(Mh[i] @ core) @ R.T for i, core in enumerate(exp.m2l_class_operators(D))]
            )
            assert _col_rel(via_cores, oracle.dense_m2l(exp, M, D)) <= 1e-12, name


@pytest.mark.parametrize("order", range(9))
class TestHarmonicWidthOperators:
    """The Cartesian sweep runs every stage on ``w = (p+1)^2``-wide rows
    (DESIGN.md §9): multipole rows ``M @ R``, local rows ``L[keep]``.  Its
    shift and gradient operators are the dense ones between those rows, and
    each closes on the harmonic subspace: ``M2M @ R == R @ X``, ``R.T @ L2L
    == Y @ R.T``, ``R.T @ A_k == G_k @ R.T``."""

    @staticmethod
    def _shifts(rng):
        # the set's eight octant offsets (h_root = 0.7381) and random ones
        side = np.array([[o >> k & 1 for k in range(3)] for o in range(8)]) - 0.5
        return np.vstack([side * (0.7381 / 2), rng.normal(scale=0.3, size=(4, 3))])

    def test_shift_operators_close_on_the_harmonic_subspace(self, order, rng):
        exp = CartesianExpansion(order)
        mis, (keep, R) = exp.mis, exp.mis.harmonic_tables()
        for t in self._shifts(rng):
            X, Y = exp.m2m_class_operator(t), exp.l2l_class_operator(t)
            assert X.shape == Y.shape == (exp.width, exp.width)
            m2m, l2l = mis.m2m_matrix(t).T, mis.l2l_matrix(t).T
            assert rel(R @ X, m2m @ R) <= 1e-14
            assert rel(Y @ R.T, R.T @ l2l) <= 1e-14

    def test_gradient_matrices_close_on_the_harmonic_subspace(self, order):
        exp = CartesianExpansion(order)
        R = exp.mis.harmonic_tables()[1]
        for A, G in zip(oracle.l2p_gradient_matrices(exp), exp.l2p_gradient_matrices()):
            assert G.shape == (exp.width, exp.width)
            if order:
                assert rel(G @ R.T, R.T @ A) <= 1e-14

    def test_the_degree_sign_commutes_with_R_bitwise(self, order, rng):
        exp = CartesianExpansion(order)
        keep, R = exp.mis.harmonic_tables()
        B = exp.mis.powers(rng.normal(scale=0.3, size=(300, 3)))
        s = 1.0 - 2.0 * (exp.mis.degrees % 2)
        assert np.array_equal((B * s) @ R, (B @ R) * s[keep])
        assert np.array_equal(s[keep], exp.p2m_sign)

    def test_leaf_basis_is_powers_times_R(self, order, rng):
        exp = CartesianExpansion(order)
        rel_ = rng.normal(scale=0.3, size=(300, 3))
        basis = exp.l2p_basis(rel_)
        assert basis.shape == (300, exp.width) and basis.flags.f_contiguous
        assert _col_rel(basis, exp.mis.powers(rel_) @ exp.mis.harmonic_tables()[1]) <= 1e-14
        # elementwise: a row's bits do not depend on the rows beside it
        assert np.array_equal(exp.l2p_basis(rel_[7:8]), basis[7:8])
        assert np.array_equal(exp.l2p_basis(rel_[::3]), basis[::3])


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("cloud_name", sorted(CLOUDS))
def test_harmonic_width_sweep_matches_the_dense_per_node_sweep(cloud_name, order):
    """The whole sweep at the harmonic width against the per-node oracle,
    whose every Cartesian operator is the dense one over all ``n_coeffs``."""
    from repro.fmm.farfield import laplace_far_field
    from repro.tree import AdaptiveOctree, build_interaction_lists
    from tests.oracles.farfield import laplace_far_field_scalar

    pts, S = CLOUDS[cloud_name](5)
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree)
    exp = CartesianExpansion(order)
    q = np.random.default_rng(order).uniform(-1, 1, len(pts))
    got = laplace_far_field(tree, lists, exp, charges=q, gradient=True)
    want = laplace_far_field_scalar(tree, lists, exp, charges=q, gradient=True)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
