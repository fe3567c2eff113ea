"""Multi-index bookkeeping for Cartesian Taylor expansions.

A :class:`MultiIndexSet` enumerates all 3D multi-indices with |alpha| <= p
in (degree, lexicographic) order and precomputes the combinatorial tables
the translation operators need: monomial powers, binomial shift matrices,
index maps for alpha+beta, and per-axis derivative maps.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import frozen_cache

__all__ = ["MultiIndexSet"]


def _enumerate_indices(order: int) -> np.ndarray:
    """All (a, b, c) with a+b+c <= order, sorted by degree then lex."""
    out = []
    for n in range(order + 1):
        for a in range(n, -1, -1):
            for b in range(n - a, -1, -1):
                out.append((a, b, n - a - b))
    return np.array(out, dtype=np.int64)


class MultiIndexSet:
    """Multi-indices |alpha| <= order with precomputed operator tables."""

    def __init__(self, order: int) -> None:
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.order = order
        self.indices = _enumerate_indices(order)  # (n, 3)
        self.n = self.indices.shape[0]
        self.degrees = self.indices.sum(axis=1)
        self._pos = {tuple(ix): i for i, ix in enumerate(self.indices.tolist())}
        # factorial of each index: alpha! = a! b! c!
        fact = np.cumprod(np.concatenate([[1.0], np.arange(1, order + 1, dtype=float)]))
        self.factorials = (
            fact[self.indices[:, 0]] * fact[self.indices[:, 1]] * fact[self.indices[:, 2]]
        )
        for table in (self.indices, self.degrees, self.factorials):
            table.setflags(write=False)  # a cached set is shared by threads

    # ------------------------------------------------------------------ basic
    def position(self, alpha: tuple[int, int, int]) -> int:
        """Linear position of a multi-index (KeyError when out of range)."""
        return self._pos[tuple(int(a) for a in alpha)]

    def __len__(self) -> int:
        return self.n

    # -------------------------------------------------------------- monomials
    def powers(self, vectors: np.ndarray) -> np.ndarray:
        """Monomials v^alpha for each vector: shape (m, n_indices).

        Built from per-axis power tables so the cost is O(m * (p + n)).
        """
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        m = v.shape[0]
        p = self.order
        # axis_pows[k] has shape (m, p+1): column j = v[:, k]**j
        pows = np.ones((3, m, p + 1))
        for k in range(3):
            np.cumprod(np.broadcast_to(v[:, k, None], (m, p)), axis=1, out=pows[k, :, 1:])
        ix = self.indices
        return pows[0][:, ix[:, 0]] * pows[1][:, ix[:, 1]] * pows[2][:, ix[:, 2]]

    # ---------------------------------------------------------- shift matrices
    def m2m_matrix(self, t: np.ndarray) -> np.ndarray:
        """Matrix T with M_parent = T @ M_child for shift ``t = c_new - c_old``.

        Entries T[a, b] = binom(alpha_a, beta_b) * t^(alpha_a - beta_b) for
        beta_b <= alpha_a (componentwise), zero otherwise.  This follows from
        M~_alpha(c') = sum_i q_i (c' - x_i)^alpha with c' - x = t + (c - x).
        """
        rows, cols, diff_pos, binom = self._subset_table()
        mono = self.powers(np.asarray(t, dtype=float).reshape(1, 3))[0]
        T = np.zeros((self.n, self.n))
        T[rows, cols] = binom * mono[diff_pos]
        return T

    def l2l_matrix(self, t: np.ndarray) -> np.ndarray:
        """Matrix T with L_child = T @ L_parent for shift ``t = c_child - c_parent``.

        L'_beta = sum_{gamma >= beta} binom(gamma, beta) t^(gamma-beta) L_gamma,
        i.e. the transpose sparsity pattern of M2M.
        """
        return self.m2m_matrix(t).T

    @frozen_cache
    def _subset_table_cached(self) -> tuple:
        rows, cols, diffs, binoms = [], [], [], []
        ix = self.indices
        for a in range(self.n):
            alpha = ix[a]
            for b in range(self.n):
                beta = ix[b]
                if np.all(beta <= alpha):
                    rows.append(a)
                    cols.append(b)
                    diffs.append(self.position(tuple(alpha - beta)))
                    binoms.append(_binom3(alpha, beta))
        return (
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(diffs, dtype=np.int64),
            np.array(binoms, dtype=float),
        )

    def _subset_table(self):
        return self._subset_table_cached()

    # ------------------------------------------------------------- m2l tables
    @frozen_cache
    def m2l_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Tables for the M2L contraction L_b = sum_a M_a * C[a,b] * D[idx[a,b]].

        ``idx[a, b]`` is the position of alpha_a + beta_b in the order-2p
        index set; ``C[a, b] = prod_k binom(a_k + b_k, a_k)``.
        """
        big = MultiIndexSet(2 * self.order)
        ix = self.indices
        idx = np.empty((self.n, self.n), dtype=np.int64)
        coef = np.empty((self.n, self.n))
        for a in range(self.n):
            for b in range(self.n):
                s = ix[a] + ix[b]
                idx[a, b] = big.position(tuple(s))
                coef[a, b] = _binom3(s, ix[a])
        return idx, coef

    # -------------------------------------------------------- harmonic tables
    @frozen_cache
    def harmonic_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keep, R)``: the independent coefficients of a harmonic
        expansion and the constant map that restores the rest.

        1/r is harmonic, so the scaled derivatives b_alpha — and the
        coefficients of any local expansion of a far field — satisfy the
        trace relation ``sum_i (g_i+2)(g_i+1) c_{g+2e_i} = 0`` for every
        multi-index g.  Solved for the z direction it gives each
        coefficient with z-power >= 2 from two of z-power two lower, same
        degree; per degree n only the 2n+1 with z-power <= 1 (``keep``,
        ``(order+1)^2`` positions in all) are independent:
        ``c = R @ c[keep]`` with ``R`` of shape ``(n, (order+1)^2)``,
        block-diagonal by degree: :meth:`harmonic_folds` on the identity.
        """
        fold = np.eye(self.n)
        for src, dst, coef in self.harmonic_folds():
            fold[:, dst] += fold[:, src] * coef
        keep = np.nonzero(self.indices[:, 2] <= 1)[0]
        return keep, fold[:, keep]

    @frozen_cache
    def harmonic_folds(self) -> tuple:
        """``(src, dst, coef)`` steps ``B[:, dst] += B[:, src] * coef``,
        highest z-power first, after which ``B[:, keep]`` is ``B @ R``: the
        trace relation pushes ``(a, b, c)`` onto ``(a+2, b, c-2)`` and
        ``(a, b+2, c-2)``; within a step every ``dst`` is distinct."""
        ix = self.indices
        steps = []
        for c in range(self.order, 1, -1):
            src = np.nonzero(ix[:, 2] == c)[0]
            a, b = ix[src, 0], ix[src, 1]
            for da, db, k in ((2, 0, a), (0, 2, b)):
                dst = [self._pos[x + da, y + db, c - 2] for x, y in zip(a.tolist(), b.tolist())]
                steps.append((src, np.array(dst), -((k + 2) * (k + 1)) / (c * (c - 1))))
        return tuple(steps)

    @frozen_cache
    def harmonic_gradient_maps(self) -> tuple[np.ndarray, ...]:
        """``(R.T @ A_k)[:, keep]`` per axis, ``A_k`` the dense map of
        :meth:`gradient_tables`."""
        keep, R = self.harmonic_tables()
        maps = [np.zeros((self.n, self.n)) for _ in range(3)]
        for A, (src, dst, coef) in zip(maps, self.gradient_tables()):
            A[src, dst] = coef
        return tuple(R.T @ A[:, keep] for A in maps)

    # --------------------------------------------------- gradient (L2P) tables
    @frozen_cache
    def gradient_tables(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per-axis tables (src, dst, coef) for d/dy_k of sum L_b (y-z)^b.

        d/dy_k (y-z)^beta = beta_k (y-z)^(beta - e_k): for each beta with
        beta_k > 0, coefficient L_beta contributes beta_k * L_beta to the
        monomial at position(beta - e_k).
        """
        out = []
        ix = self.indices
        for k in range(3):
            src, dst, coef = [], [], []
            for b in range(self.n):
                beta = ix[b].copy()
                if beta[k] > 0:
                    beta[k] -= 1
                    src.append(b)
                    dst.append(self.position(tuple(beta)))
                    coef.append(float(ix[b][k]))
            out.append(
                (
                    np.array(src, dtype=np.int64),
                    np.array(dst, dtype=np.int64),
                    np.array(coef, dtype=float),
                )
            )
        return tuple(out)

    def __hash__(self) -> int:  # allow lru_cache on methods
        return hash(("MultiIndexSet", self.order))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiIndexSet) and other.order == self.order


def _binom3(upper: np.ndarray, lower: np.ndarray) -> float:
    """Product of per-component binomial coefficients binom(upper_k, lower_k)."""
    out = 1.0
    for u, l in zip(upper, lower):
        out *= _binom(int(u), int(l))
    return out


@frozen_cache
def _binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        return 0.0
    r = 1.0
    for i in range(min(k, n - k)):
        r = r * (n - i) / (i + 1)
    return round(r)
