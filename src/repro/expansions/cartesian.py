"""Cartesian Taylor expansion operators for the Laplace kernel.

Representation
--------------
* Multipole expansion of a cell with center c:
      M_alpha = sum_i q_i (c - x_i)^alpha            (no factorials)
  giving the far potential  phi(y) = sum_alpha M_alpha b_alpha(y - c)
  with the scaled derivatives b_alpha of :mod:`repro.expansions.derivatives`.
* Local expansion about z:  phi(y) = sum_beta L_beta (y - z)^beta.

All operators are linear maps with precomputed combinatorial tables from
:class:`repro.expansions.multiindex.MultiIndexSet`; per-geometry matrices
(M2M/L2L shifts) are cached since an octree only ever uses 8 child offsets
per level.

The translation space
---------------------
Of the C(p+3, 3) Taylor coefficients only (p+1)^2 are independent for a
harmonic field (:meth:`MultiIndexSet.harmonic_tables`: the positions
``keep`` and the constant map ``R`` with ``c = R @ c[keep]``).  A
multipole acts on the far field only through ``M @ R`` and every local
expansion M2L writes is ``L[keep] @ R.T``, so the class operators of
:meth:`CartesianExpansion.m2l_class_operators` are the ``keep x keep``
*cores* of the dense M2L operator — the same entries, fewer of them —
and the far-field sweep applies them — tiled into octet-to-octet blocks,
one per direction — between one ``M @ R`` and one ``@ R.T``
(:attr:`CartesianExpansion.m2l_reduction`; the blocks serve every level
because a core scales by exact powers of two per degree,
:attr:`CartesianExpansion.m2l_degrees`).  The per-pair
:meth:`~CartesianExpansion.m2l` / :meth:`~CartesianExpansion.m2l_batch`
stay dense: they are what the reduced sweep is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.expansions.derivatives import scaled_derivative_tensors
from repro.expansions.multiindex import MultiIndexSet

__all__ = ["CartesianExpansion"]

#: chunk size for batched M2L (bounds the (chunk, n, n) temporary)
_M2L_CHUNK = 1024


class CartesianExpansion:
    """Factory for all expansion operators at a fixed order ``p``."""

    backend = "cartesian"

    def __init__(self, order: int) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.order = order
        self.mis = MultiIndexSet(order)
        self.mis_big = MultiIndexSet(2 * order)
        self.mis_plus = MultiIndexSet(order + 1)
        self._shift_cache: dict[tuple, np.ndarray] = {}

    @property
    def n_coeffs(self) -> int:
        return self.mis.n

    @property
    def shift_degrees(self) -> np.ndarray:
        """Degree ``|alpha|`` of each coefficient: halving an M2M / L2L
        shift halves entry ``(a, b)`` ``|n_b - n_a|`` times, exactly."""
        return self.mis.degrees

    @property
    def m2l_reduction(self) -> np.ndarray:
        """``R`` of shape ``(n_coeffs, (order+1)^2)``: ``M @ R`` enters the
        space the M2L cores act in, ``@ R.T`` leaves it."""
        return self.mis.harmonic_tables()[1]

    @property
    def m2l_degrees(self) -> np.ndarray:
        """Degree ``|alpha|`` of each translation coefficient (``keep``
        order): what the level-free M2L scaling is stated in — entry
        ``(a, b)`` of a core doubles ``n_a + n_b + 1`` times when the
        displacement halves."""
        return self.mis.degrees[self.mis.harmonic_tables()[0]]

    # ------------------------------------------------------------------ P2M
    def p2m(self, points: np.ndarray, strengths: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Multipole moments of monopole sources about ``center``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.asarray(strengths, dtype=float).reshape(-1)
        P = self.mis.powers(np.asarray(center) - pts)  # (n_pts, n_coeffs)
        return q @ P

    # ------------------------------------------------------------------ M2M
    def m2m(self, moments: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Translate moments to a new center: ``shift = c_new - c_old``."""
        return self._m2m_matrix(shift) @ moments

    def _m2m_matrix(self, shift: np.ndarray) -> np.ndarray:
        key = ("m2m", tuple(np.round(np.asarray(shift, dtype=float), 15)))
        mat = self._shift_cache.get(key)
        if mat is None:
            mat = self.mis.m2m_matrix(np.asarray(shift, dtype=float))
            self._shift_cache[key] = mat
        return mat

    # ---------------------------------------------------- per-body bases
    # Row bases for the batched endpoint operations of the far-field
    # engine.  ``rel = x - center`` throughout; every basis B satisfies a
    # sum rule against the matching per-node operator:
    #   p2m:  M = sum_i q_i B_i          l2p:  phi_i = B_i . L
    #   p2l:  L = sum_i q_i B_i          m2p:  phi_i = B_i . M
    def p2m_basis(self, rel: np.ndarray) -> np.ndarray:
        return self.mis.powers(-np.atleast_2d(rel))

    def l2p_basis(self, rel: np.ndarray) -> np.ndarray:
        return self.mis.powers(np.atleast_2d(rel))

    @property
    def p2m_sign(self) -> np.ndarray:
        """``p2m_basis(rel)`` is ``l2p_basis(rel) * p2m_sign``, bit for bit.

        ``powers(-rel)`` is ``powers(rel)`` with column ``alpha`` negated
        when ``|alpha|`` is odd — exactly: sign flips commute with every
        IEEE product of the power tables — so P2M reads the L2P table.
        """
        return 1.0 - 2.0 * (self.mis.degrees % 2)

    def p2l_basis(self, rel: np.ndarray) -> np.ndarray:
        return scaled_derivative_tensors(-np.atleast_2d(rel), self.order)

    def m2p_basis(self, rel: np.ndarray) -> np.ndarray:
        return scaled_derivative_tensors(np.atleast_2d(rel), self.order)

    def m2p_grad_basis(self, rel: np.ndarray) -> np.ndarray:
        return scaled_derivative_tensors(np.atleast_2d(rel), self.order + 1)

    # -------------------------------------------------- geometry-class ops
    # Row-applied dense operators for one *geometry class* (a fixed shift
    # or M2L displacement, of which an octree level has only a handful);
    # ``out_rows = in_rows @ A``.  The far-field engine applies one matmul
    # per class instead of one operator per pair.
    def m2m_class_operator(self, shift: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self._m2m_matrix(shift).T)

    def l2l_class_operator(self, shift: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self._l2l_matrix(shift).T)

    def m2l_class_operators(self, displacements: np.ndarray) -> list[np.ndarray]:
        """M2L core per displacement row: A_i[a, b] = C[a, b] * B[i, idx[a, b]]
        for a, b in ``keep`` — ``((order+1)^2, (order+1)^2)``, applied as
        ``(M @ R)[src] @ A_i`` (see the module docstring).

        One derivative-tensor recurrence over the whole ``(m, 3)`` batch
        (elementwise in ``m``, so row ``i`` equals a single-displacement
        build bitwise), then one gather per row — each operator owns its
        memory, as a byte-budgeted operator cache requires.
        """
        keep = self.mis.harmonic_tables()[0]
        idx, coef = (t[np.ix_(keep, keep)] for t in self.mis.m2l_tables())
        B = scaled_derivative_tensors(
            np.asarray(displacements, dtype=float).reshape(-1, 3), 2 * self.order
        )
        return [row[idx] * coef for row in B]

    def l2p_gradient_matrices(self) -> tuple[np.ndarray, ...]:
        """Matrices A_k turning locals into per-axis derivative coefficient
        vectors: ``w_k = local @ A_k`` with ``grad[:, k] = P @ w_k`` — the
        batched form of the scatter in :meth:`l2p_gradient`."""
        mats = []
        for src, dst, coef in self.mis.gradient_tables():
            A = np.zeros((self.mis.n, self.mis.n))
            A[src, dst] = coef
            mats.append(A)
        return tuple(mats)

    def m2p_gradient_matrices(self) -> tuple[np.ndarray, ...]:
        """Matrices A_k into the order+1 derivative basis: ``g_k = moments
        @ A_k`` with ``grad[:, k] = B_big @ g_k`` (cf. :meth:`m2p_gradient`)."""
        alpha = self.mis.indices
        n_big = self.mis_plus.n
        mats = []
        for k, (self_idx, raised_idx) in enumerate(self.mis.raise_tables()):
            A = np.zeros((self.mis.n, n_big))
            A[self_idx, raised_idx] = (alpha[self_idx, k] + 1).astype(float)
            mats.append(A)
        return tuple(mats)

    # ------------------------------------------------------------------ M2L
    def m2l(self, moments: np.ndarray, displacement: np.ndarray) -> np.ndarray:
        """Convert one multipole to a local expansion.

        ``displacement = z_local - c_multipole`` (from source cell center to
        target cell center); must be well separated (nonzero).
        """
        L = self.m2l_batch(moments[None, :], np.asarray(displacement, dtype=float)[None, :])
        return L[0]

    def m2l_batch(self, moments: np.ndarray, displacements: np.ndarray) -> np.ndarray:
        """Batched M2L: row i converts moments[i] across displacements[i].

        L[i, b] = sum_a moments[i, a] * C[a, b] * B[i, idx[a, b]]
        where B are the order-2p scaled derivative tensors.
        """
        M = np.atleast_2d(np.asarray(moments, dtype=float))
        D = np.atleast_2d(np.asarray(displacements, dtype=float))
        if M.shape[0] != D.shape[0]:
            raise ValueError("moments and displacements must align")
        idx, coef = self.mis.m2l_tables()
        out = np.empty((M.shape[0], self.mis.n))
        for lo in range(0, M.shape[0], _M2L_CHUNK):
            hi = min(lo + _M2L_CHUNK, M.shape[0])
            B = scaled_derivative_tensors(D[lo:hi], 2 * self.order)
            # T[i, a, b] = coef[a, b] * B[i, idx[a, b]]
            T = B[:, idx] * coef[None, :, :]
            out[lo:hi] = np.einsum("ia,iab->ib", M[lo:hi], T)
        return out

    # ------------------------------------------------------------------ L2L
    def l2l(self, local: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Translate a local expansion: ``shift = z_new - z_old``."""
        return self._l2l_matrix(shift) @ local

    def _l2l_matrix(self, shift: np.ndarray) -> np.ndarray:
        key = ("l2l", tuple(np.round(np.asarray(shift, dtype=float), 15)))
        mat = self._shift_cache.get(key)
        if mat is None:
            mat = self.mis.l2l_matrix(np.asarray(shift, dtype=float))
            self._shift_cache[key] = mat
        return mat

    # ------------------------------------------------------------------ L2P
    def l2p(self, local: np.ndarray, targets: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Potential of a local expansion at each target, shape (n,)."""
        P = self.mis.powers(np.atleast_2d(targets) - np.asarray(center))
        return P @ local

    def l2p_gradient(self, local: np.ndarray, targets: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Gradient of the local expansion at each target, shape (n, 3)."""
        y = np.atleast_2d(np.asarray(targets, dtype=float)) - np.asarray(center)
        P = self.mis.powers(y)
        grad = np.empty((y.shape[0], 3))
        for k, (src, dst, coef) in enumerate(self.mis.gradient_tables()):
            w = np.zeros(self.mis.n)
            np.add.at(w, dst, coef * local[src])
            grad[:, k] = P @ w
        return grad

    # ------------------------------------------------------------------ M2P
    def m2p(self, moments: np.ndarray, targets: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Direct far-field evaluation of a multipole at targets (W list)."""
        d = np.atleast_2d(np.asarray(targets, dtype=float)) - np.asarray(center)
        B = scaled_derivative_tensors(d, self.order)
        return B @ moments

    def m2p_gradient(self, moments: np.ndarray, targets: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Gradient of a multipole evaluation at targets, shape (n, 3).

        d/dy_k phi = sum_alpha M_alpha (alpha_k + 1) b_(alpha + e_k)(y - c).
        """
        d = np.atleast_2d(np.asarray(targets, dtype=float)) - np.asarray(center)
        Bbig = scaled_derivative_tensors(d, self.order + 1)
        grad = np.empty((d.shape[0], 3))
        alpha = self.mis.indices
        for k, (self_idx, raised_idx) in enumerate(self.mis.raise_tables()):
            coef = (alpha[self_idx, k] + 1).astype(float) * moments[self_idx]
            grad[:, k] = Bbig[:, raised_idx] @ coef
        return grad

    # ------------------------------------------------------------------ P2L
    def p2l(self, points: np.ndarray, strengths: np.ndarray, center: np.ndarray) -> np.ndarray:
        """Local expansion about ``center`` due to distant monopoles (X list).

        L_beta = sum_i q_i b_beta(z - x_i).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.asarray(strengths, dtype=float).reshape(-1)
        B = scaled_derivative_tensors(np.asarray(center) - pts, self.order)
        return q @ B
