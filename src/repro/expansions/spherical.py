"""Solid-harmonic (spherical) expansion operators.

This is the representation named by the paper ("retained terms in the
spherical harmonics expansion").  We use the scaled complex solid
harmonics of Epton & Dembart (1995):

    R_n^m(v) = rho^n  P_n^m(cos t) e^{i m p} / (n+m)!      (regular)
    I_n^m(v) = (n-m)! P_n^m(cos t) e^{i m p} / rho^{n+1}   (irregular)

with P_n^m carrying the Condon–Shortley phase and negative orders defined
by P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m.  Two addition theorems — both
verified numerically in the test suite — generate every operator:

    (A) R_n^m(a+b) = sum_{j<=n,k} R_j^k(a) R_{n-j}^{m-k}(b)            (exact)
    (B) I_n^m(a+b) = sum_{j,k} (-1)^j conj(R_j^k(a)) I_{n+j}^{m+k}(b)  (|a|<|b|)

Conventions used here:

* multipole about c:  phi(y) = sum M_n^m I_n^m(y-c),
  with  M_n^m = sum_i q_i conj(R_n^m(x_i - c))
* local about z:      phi(y) = sum L_n^m conj(R_n^m(y-z))

The operator interface matches
:class:`~repro.expansions.cartesian.CartesianExpansion` so the FMM driver
can swap backends (the `ablation-expansions` bench).  Gradients are
analytic, from the ladder identities on the gradient-matrix builders.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.arrays import frozen_cache

__all__ = ["SphericalExpansion"]


def _legendre_table(x: np.ndarray, p: int, s: np.ndarray | None = None) -> np.ndarray:
    """Associated Legendre P_n^m(x) for 0 <= m <= n <= p.

    Shape (p+1, p+1, len(x)); entries with m > n are zero.  Includes the
    Condon–Shortley phase.  ``s`` is sin(theta); pass it when it is known
    exactly — reconstructing it as sqrt(1 - x^2) loses half the digits
    near the poles, which the m != 0 ladder amplifies.
    """
    x = np.asarray(x, dtype=float)
    if s is None:
        s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    P = np.zeros((p + 1, p + 1) + x.shape)
    P[0, 0] = 1.0
    for m in range(1, p + 1):
        P[m, m] = -(2 * m - 1) * s * P[m - 1, m - 1]
    for m in range(0, p):
        P[m + 1, m] = x * (2 * m + 1) * P[m, m]
    for m in range(0, p + 1):
        for n in range(m + 2, p + 1):
            P[n, m] = (x * (2 * n - 1) * P[n - 1, m] - (n + m - 1) * P[n - 2, m]) / (n - m)
    return P


def _spherical_coords(
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rho, cos_theta, sin_theta, phi) of each 3-vector (rows).

    sin_theta comes from the transverse radius hypot(x, y) directly, so it
    keeps full relative accuracy for near-axis vectors.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    rho = np.sqrt(np.einsum("ij,ij->i", v, v))
    trans = np.hypot(v[:, 0], v[:, 1])
    safe = np.where(rho > 0, rho, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ct = np.where(rho > 0, v[:, 2] / safe, 1.0)
        st = np.where(rho > 0, trans / safe, 0.0)
    phi = np.arctan2(v[:, 1], v[:, 0])
    return rho, np.clip(ct, -1.0, 1.0), np.clip(st, 0.0, 1.0), phi


@frozen_cache
def _nm_index(p: int):
    """Flattened (n, m) enumeration, -n <= m <= n, n <= p."""
    ns, ms = [], []
    pos = {}
    for n in range(p + 1):
        for m in range(-n, n + 1):
            pos[(n, m)] = len(ns)
            ns.append(n)
            ms.append(m)
    return np.array(ns), np.array(ms), pos


@frozen_cache
def _norm_factors(p: int):
    """Per-(n, m) scale factors of R (1/(n+m)!) and I ((n-m)!), plus the
    (-1)^m mirror signs, for m >= 0 entries."""
    ns, ms, _ = _nm_index(p)
    r_sc = np.array([1.0 / float(math.factorial(n + abs(m))) for n, m in zip(ns, ms)])
    i_sc = np.array([float(math.factorial(n - abs(m))) for n, m in zip(ns, ms)])
    mirror = np.array([(-1.0) ** abs(m) for m in ms])
    return r_sc, i_sc, mirror


def _solid_tables(vectors: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, I) tables: complex arrays of shape (n_vectors, (p+1)^2).

    I is only valid for nonzero vectors; callers evaluating I pass
    well-separated displacements.  Fully vectorized over both the points
    *and* the (p+1)^2 coefficients: the per-(n, m) assembly is three
    fancy-indexed gathers (Legendre row, azimuthal phase, radial power)
    combined elementwise.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    rho, ct, st, phi = _spherical_coords(v)
    P = _legendre_table(ct, p, st)  # (p+1, p+1, npts)
    ns, ms, _ = _nm_index(p)
    r_sc, i_sc, mirror = _norm_factors(p)
    ams = np.abs(ms)
    eim = np.exp(1j * np.outer(phi, np.arange(0, p + 1)))
    rho_safe = np.where(rho > 0, rho, 1.0)
    rho_n = rho_safe[:, None] ** np.arange(0, p + 1)[None, :]  # (npts, p+1)
    rho_zero = rho == 0.0
    rho_inv = 1.0 / np.where(rho_zero, 1.0, rho)
    rho_inv_n1 = rho_inv[:, None] ** (np.arange(0, p + 1)[None, :] + 1.0)
    # phase column per coefficient: e^{i|m|phi} for m >= 0, its conjugate
    # times the (-1)^{|m|} mirror sign for m < 0
    E = eim[:, ams]
    neg = ms < 0
    if np.any(neg):
        E = np.where(neg[None, :], np.conj(E) * mirror[None, :], E)
    base = P[ns, ams].T * E  # (npts, n_coeffs)
    R = (r_sc[None, :] * base) * rho_n[:, ns]
    I = (i_sc[None, :] * base) * rho_inv_n1[:, ns]
    if np.any(rho_zero):
        # R is well defined at 0 (only n=0 survives); I is singular there.
        R[rho_zero] = 0.0
        R[rho_zero, 0] = 1.0
        I[rho_zero] = np.inf
    return R, I


def _regular_table(vectors: np.ndarray, p: int) -> np.ndarray:
    return _solid_tables(vectors, p)[0]


def _irregular_table(vectors: np.ndarray, p: int) -> np.ndarray:
    return _solid_tables(vectors, p)[1]


class SphericalExpansion:
    """Spherical-harmonic FMM operators of order ``p`` (terms n <= p)."""

    backend = "spherical"
    #: P2M reads the L2P table as it is: both ends use conj(R_n^m(rel))
    p2m_sign = None

    def __init__(self, order: int) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.order = order
        self.ns, self.ms, self.pos = _nm_index(order)
        #: degree of each coefficient (cf. :attr:`CartesianExpansion.degrees`)
        self.degrees = self.ns
        #: already (order+1)^2 wide: the sweep runs on the coefficients
        self.n_coeffs = self.width = len(self.ns)
        self._m2m_table = _build_shift_table(order, kind="m2m")
        self._l2l_table = _build_shift_table(order, kind="l2l")
        self._m2l_table = _build_m2l_table(order)

    # ---------------------------------------------------- per-body bases
    # Row bases for the batched endpoint operations of the far-field
    # engine, ``rel = x - center`` throughout: P2M sums ``q_i`` times the
    # L2P row, M_n^m = sum_i q_i conj(R_n^m(x_i - c)); L2P (phi = Re sum
    # L_n^m conj(R_n^m(y - z))) dots each row with the node's coefficients.
    def l2p_basis(self, rel: np.ndarray) -> np.ndarray:
        return np.conj(_regular_table(np.atleast_2d(rel), self.order))

    # -------------------------------------------------- geometry-class ops
    # An octree quantizes geometry: per level there are <= 8 distinct
    # parent<->child offsets and a bounded family of well-separated M2L
    # displacements.  These builders materialize the linear operator of one
    # such *class* as a dense row-applied matrix (``out_rows = in_rows @ A``)
    # so the far-field engine can translate every pair of a class with one
    # matmul.  All three scatter the flattened addition-theorem tables
    # below:
    #   M2M  M_n^m(new) = sum_{j,k} conj(R_j^k(c_old - c_new)) M_{n-j}^{m-k}(old)
    #   L2L  L'_j^k = sum_{n>=j} L_n^m conj(R_{n-j}^{m-k}(z_new - z_old))
    #   M2L  L_j^k = (-1)^j sum_{n,m} M_n^m I_{n+j}^{m+k}(z - c)
    def m2m_class_operator(self, shift) -> np.ndarray:
        """Dense row-applied M2M for one fixed ``shift = c_new - c_old``."""
        t = -np.asarray(shift, dtype=float).reshape(1, 3)
        Rt = np.conj(_regular_table(t, self.order)[0])
        out_idx, in_idx, r_idx = self._m2m_table
        A = np.zeros((self.n_coeffs, self.n_coeffs), dtype=complex)
        np.add.at(A, (in_idx, out_idx), Rt[r_idx])
        return A

    def l2l_class_operator(self, shift) -> np.ndarray:
        """Dense row-applied L2L for one fixed ``shift = z_new - z_old``."""
        t = np.asarray(shift, dtype=float).reshape(1, 3)
        Rt = np.conj(_regular_table(t, self.order)[0])
        out_idx, in_idx, r_idx = self._l2l_table
        A = np.zeros((self.n_coeffs, self.n_coeffs), dtype=complex)
        np.add.at(A, (in_idx, out_idx), Rt[r_idx])
        return A

    def m2l_class_operators(self, displacements) -> np.ndarray:
        """Dense row-applied M2L per displacement row ``z - c``, stacked
        ``(m, nc, nc)``.

        One irregular-harmonic table over the whole ``(m, 3)`` batch
        (elementwise in ``m``: row ``i`` equals a single-displacement
        build bitwise), then one addition-theorem scatter of every row: the
        table's ``(in, out)`` cells are distinct, so the ``+=`` adds each
        term to a zero once, as ``np.add.at`` would.
        """
        D = np.asarray(displacements, dtype=float).reshape(-1, 3)
        if not D.any(axis=1).all():
            raise ValueError("zero displacement passed to M2L operator assembly")
        I = _irregular_table(D, 2 * self.order)
        out_idx, in_idx, i_idx, sign = self._m2l_table
        ops = np.zeros((D.shape[0], self.n_coeffs, self.n_coeffs), dtype=complex)
        ops[:, in_idx, out_idx] += sign * I[:, i_idx]
        return ops

    def l2p_gradient_matrices(self) -> tuple[np.ndarray, ...]:
        """Row-applied gradient maps: ``G_k = locals @ A_k`` reproduces
        :func:`_regular_gradient_coeffs` for a whole batch of locals, and
        ``grad[:, k] = Re(l2p_basis(rel) @ G_k)``.  Analytic, via the
        regular-harmonic ladder identities (verified numerically in the
        test suite)

            dz R_n^m = R_{n-1}^m,
            (dx + i dy) R_n^m = R_{n-1}^{m+1},
            (dx - i dy) R_n^m = -R_{n-1}^{m-1}.
        """
        return _regular_gradient_matrices(self.order)

# --------------------------------------------------------------------------
# table builders
# --------------------------------------------------------------------------


@frozen_cache
def _build_shift_table(p: int, *, kind: str):
    """Flattened (out, in, R-index) triples for M2M ('m2m') or L2L ('l2l').

    m2m:  out (n, m) <- in (n-j, m-k) with factor R-table[(j, k)]
    l2l:  out (j, k) <- in (n, m)     with factor R-table[(n-j, m-k)]
    """
    ns, ms, pos = _nm_index(p)
    out_idx, in_idx, r_idx = [], [], []
    for o_lin, (n, m) in enumerate(zip(ns, ms)):
        for j in range(0, p + 1):
            for k in range(-j, j + 1):
                if kind == "m2m":
                    nn, mm = n - j, m - k
                    if nn < 0 or abs(mm) > nn:
                        continue
                    out_idx.append(o_lin)
                    in_idx.append(pos[(nn, mm)])
                    r_idx.append(pos[(j, k)])
                else:  # l2l: out (n, m) <- in (n', m') with n' >= n
                    nn, mm = n + j, m + k
                    if nn > p or abs(mm) > nn:
                        continue
                    out_idx.append(o_lin)
                    in_idx.append(pos[(nn, mm)])
                    r_idx.append(pos[(j, k)])
    return np.array(out_idx), np.array(in_idx), np.array(r_idx)


@frozen_cache
def _build_m2l_table(p: int):
    """Flattened (out, in, I-index, sign) for the M2L conversion."""
    ns, ms, pos = _nm_index(p)
    _, _, pos2 = _nm_index(2 * p)
    out_idx, in_idx, i_idx, sign = [], [], [], []
    for j_lin, (j, k) in enumerate(zip(ns, ms)):
        for n_lin, (n, m) in enumerate(zip(ns, ms)):
            nm, mm = n + j, m + k
            if abs(mm) > nm:
                continue
            out_idx.append(j_lin)
            in_idx.append(n_lin)
            i_idx.append(pos2[(nm, mm)])
            sign.append((-1.0) ** j)
    return (
        np.array(out_idx),
        np.array(in_idx),
        np.array(i_idx),
        np.array(sign),
    )


def _regular_gradient_coeffs(p: int, local: np.ndarray) -> list[np.ndarray]:
    """Coefficient vectors G_k with grad_k phi = Re sum G_k conj(R).

    For phi = Re sum L_n^m conj(R_n^m):
      dx: conj(dx R_n^m) = [conj R_{n-1}^{m+1} - conj R_{n-1}^{m-1}] / 2
      dy: conj(dy R_n^m) = i [conj R_{n-1}^{m+1} + conj R_{n-1}^{m-1}] / 2
      dz: conj(dz R_n^m) =  conj R_{n-1}^m
    """
    ns, ms, pos = _nm_index(p)
    gx = np.zeros(len(ns), dtype=complex)
    gy = np.zeros(len(ns), dtype=complex)
    gz = np.zeros(len(ns), dtype=complex)
    for j, (n, m) in enumerate(zip(ns, ms)):
        L = local[j]
        if n == 0 or L == 0:
            continue
        if abs(m + 1) <= n - 1:
            tgt = pos[(n - 1, m + 1)]
            gx[tgt] += L / 2.0
            gy[tgt] += 1j * L / 2.0
        if abs(m - 1) <= n - 1:
            tgt = pos[(n - 1, m - 1)]
            gx[tgt] -= L / 2.0
            gy[tgt] += 1j * L / 2.0
        if abs(m) <= n - 1:
            gz[pos[(n - 1, m)]] += L
    return [gx, gy, gz]


@frozen_cache
def _regular_gradient_matrices(p: int) -> tuple[np.ndarray, ...]:
    """Matrices A_k with ``_regular_gradient_coeffs(p, L)[k] == L @ A_k``."""
    n = (p + 1) ** 2
    mats = tuple(np.zeros((n, n), dtype=complex) for _ in range(3))
    eye = np.eye(n)
    for j in range(n):
        gx, gy, gz = _regular_gradient_coeffs(p, eye[j])
        for A, g in zip(mats, (gx, gy, gz)):
            A[j] = g
    return mats
