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
expansion of a far field is ``L[keep] @ R.T``, so the whole far-field
sweep runs on :attr:`CartesianExpansion.width` = (p+1)^2 coefficients:
a multipole row is ``M @ R``, a local row ``L[keep]``, and every operator
is built to act between the two — the leaf basis ``powers(rel) @ R``,
the shifts ``(M2M @ R)[keep]`` and ``(R.T @ L2L)[:, keep]``, the gradient
maps ``(R.T @ A_k)[:, keep]`` (each closes on the harmonic subspace) and
the M2L *cores*, the ``keep x keep`` entries of the dense M2L operator.
No stage reduces or expands anything.  The dense operators over all
:attr:`CartesianExpansion.n_coeffs`, which the sweep is tested against,
live with the test oracles.
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
        self._keep, self._R = self.mis.harmonic_tables()
        #: the sweep's coefficients per row, (order+1)^2
        self.width = self._keep.size
        #: degree of each sweep coefficient: halving a shift halves entry
        #: ``(a, b)`` of an M2M / L2L operator ``|n_b - n_a|`` times, and an
        #: M2L core's entry doubles ``n_a + n_b + 1`` times when the
        #: displacement halves — exactly
        self.degrees = self.mis.degrees[self._keep]

    @property
    def n_coeffs(self) -> int:
        """All C(p+3, 3) Taylor coefficients: what the cost model counts."""
        return self.mis.n

    # ---------------------------------------------------- per-body bases
    # Row bases for the batched endpoint operations of the far-field
    # engine, ``rel = x - center`` throughout: P2M sums ``q_i`` times the
    # L2P row times :attr:`p2m_sign`, and L2P dots each row with the
    # node's coefficients.
    def l2p_basis(self, rel: np.ndarray) -> np.ndarray:
        """``powers(rel) @ R``, column-major, by the elementwise steps of
        :meth:`MultiIndexSet.harmonic_folds`: a row's bits are its own."""
        basis = self.mis.powers(np.atleast_2d(rel))
        for src, dst, coef in self.mis.harmonic_folds():
            basis[:, dst] += basis[:, src] * coef
        return basis[:, self._keep]

    @property
    def p2m_sign(self) -> np.ndarray:
        """The P2M row ``powers(-rel) @ R`` is ``l2p_basis(rel) * p2m_sign``,
        bit for bit up to the sign of zero: a fold that sums to 0 gives
        ``+0.0`` where the negated row has ``-0.0``.

        ``powers(-rel)`` is ``powers(rel)`` with column ``alpha`` negated
        when ``|alpha|`` is odd — exactly: sign flips commute with every
        IEEE product of the power tables — and the fold only mixes columns
        of one degree, so P2M reads the L2P table.
        """
        return 1.0 - 2.0 * (self.degrees % 2)

    # -------------------------------------------------- geometry-class ops
    # Row-applied dense operators for one *geometry class* (a fixed shift
    # or M2L displacement, of which an octree level has only a handful);
    # ``out_rows = in_rows @ A``.  The far-field engine applies one matmul
    # per class instead of one operator per pair.
    def m2m_class_operator(self, shift: np.ndarray) -> np.ndarray:
        """``(M2M @ R)[keep]``: the dense row-applied M2M, between sweep rows."""
        T = self.mis.m2m_matrix(np.asarray(shift, dtype=float))
        return np.ascontiguousarray(T[:, self._keep].T @ self._R)

    def l2l_class_operator(self, shift: np.ndarray) -> np.ndarray:
        """``(R.T @ L2L)[:, keep]``: the dense row-applied L2L, between sweep
        rows."""
        T = self.mis.l2l_matrix(np.asarray(shift, dtype=float)).T
        return np.ascontiguousarray(self._R.T @ T[:, self._keep])

    def m2l_class_operators(self, displacements: np.ndarray) -> np.ndarray:
        """M2L cores, one per displacement row, stacked ``(m, w, w)``:
        A_i[a, b] = C[a, b] * B[i, idx[a, b]] for a, b in ``keep`` —
        ``w`` = :attr:`width`, applied to multipole rows ``M @ R`` (see the
        module docstring).

        One derivative-tensor recurrence over the whole ``(m, 3)`` batch
        (elementwise in ``m``, so row ``i`` equals a single-displacement
        build bitwise), then one gather of every row.
        """
        idx, coef = (t[np.ix_(self._keep, self._keep)] for t in self.mis.m2l_tables())
        B = scaled_derivative_tensors(
            np.asarray(displacements, dtype=float).reshape(-1, 3), 2 * self.order
        )
        cores = np.take(B, idx, axis=1)
        cores *= coef
        return cores

    def l2p_gradient_matrices(self) -> tuple[np.ndarray, ...]:
        """Matrices G_k turning locals into per-axis derivative coefficient
        vectors: ``w_k = local @ G_k`` with ``grad[:, k] = P @ w_k``, ``P``
        the L2P rows — ``(R.T @ A_k)[:, keep]``, ``A_k`` the dense map
        (``d/dy_k`` of ``(y - z)^beta``); built once per order."""
        return self.mis.harmonic_gradient_maps()
