"""Cartesian Taylor expansion operators for the Laplace kernel.

Representation
--------------
* Multipole expansion of a cell with center c:
      M_alpha = sum_i q_i (c - x_i)^alpha            (no factorials)
  giving the far potential  phi(y) = sum_alpha M_alpha b_alpha(y - c)
  with the scaled derivatives b_alpha of :mod:`repro.expansions.derivatives`.
* Local expansion about z:  phi(y) = sum_beta L_beta (y - z)^beta.

All operators are linear maps with precomputed combinatorial tables from
:class:`repro.expansions.multiindex.MultiIndexSet`, built as row bases and
class operators that the far-field engine applies as gemms; each is built
once per root box (:class:`repro.expansions.operators.OperatorSet`).

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
:attr:`CartesianExpansion.m2l_degrees`).  The dense M2L over all
coefficients, which the reduction is tested against, lives with the
test oracles.
"""

from __future__ import annotations

import numpy as np

from repro.expansions.derivatives import scaled_derivative_tensors
from repro.expansions.multiindex import MultiIndexSet

__all__ = ["CartesianExpansion"]


class CartesianExpansion:
    """Factory for all expansion operators at a fixed order ``p``."""

    backend = "cartesian"

    def __init__(self, order: int) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.order = order
        self.mis = MultiIndexSet(order)

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

    # ---------------------------------------------------- per-body bases
    # Row bases for the batched endpoint operations of the far-field
    # engine, ``rel = x - center`` throughout: P2M sums ``q_i`` times the
    # L2P row times :attr:`p2m_sign`, and L2P dots each row with the
    # node's coefficients.
    def l2p_basis(self, rel: np.ndarray) -> np.ndarray:
        return self.mis.powers(np.atleast_2d(rel))

    @property
    def p2m_sign(self) -> np.ndarray:
        """The P2M row ``powers(-rel)`` is ``l2p_basis(rel) * p2m_sign``,
        bit for bit.

        ``powers(-rel)`` is ``powers(rel)`` with column ``alpha`` negated
        when ``|alpha|`` is odd — exactly: sign flips commute with every
        IEEE product of the power tables — so P2M reads the L2P table.
        """
        return 1.0 - 2.0 * (self.mis.degrees % 2)

    # -------------------------------------------------- geometry-class ops
    # Row-applied dense operators for one *geometry class* (a fixed shift
    # or M2L displacement, of which an octree level has only a handful);
    # ``out_rows = in_rows @ A``.  The far-field engine applies one matmul
    # per class instead of one operator per pair.
    def m2m_class_operator(self, shift: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.mis.m2m_matrix(np.asarray(shift, dtype=float)).T)

    def l2l_class_operator(self, shift: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.mis.l2l_matrix(np.asarray(shift, dtype=float)).T)

    def m2l_class_operators(self, displacements: np.ndarray) -> np.ndarray:
        """M2L cores, one per displacement row, stacked ``(m, w, w)``:
        A_i[a, b] = C[a, b] * B[i, idx[a, b]] for a, b in ``keep`` —
        ``w = (order+1)^2``, applied as ``(M @ R)[src] @ A_i`` (see the
        module docstring).

        One derivative-tensor recurrence over the whole ``(m, 3)`` batch
        (elementwise in ``m``, so row ``i`` equals a single-displacement
        build bitwise), then one gather of every row.
        """
        keep = self.mis.harmonic_tables()[0]
        idx, coef = (t[np.ix_(keep, keep)] for t in self.mis.m2l_tables())
        B = scaled_derivative_tensors(
            np.asarray(displacements, dtype=float).reshape(-1, 3), 2 * self.order
        )
        cores = np.take(B, idx, axis=1)
        cores *= coef
        return cores

    def l2p_gradient_matrices(self) -> tuple[np.ndarray, ...]:
        """Matrices A_k turning locals into per-axis derivative coefficient
        vectors: ``w_k = local @ A_k`` with ``grad[:, k] = P @ w_k``, ``P``
        the L2P rows (``d/dy_k`` of ``(y - z)^beta``)."""
        mats = []
        for src, dst, coef in self.mis.gradient_tables():
            A = np.zeros((self.mis.n, self.mis.n))
            A[src, dst] = coef
            mats.append(A)
        return tuple(mats)
