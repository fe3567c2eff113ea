"""Scaled derivative tensors of the Laplace Green's function.

For G(d) = 1/|d| we need the scaled derivatives

    b_alpha(d) = (D^alpha G)(d) / alpha!

for all |alpha| <= order, vectorized over many displacement vectors d.
They satisfy the Duan–Krasny-style recurrence (harmonicity of G):

    n |d|^2 b_k = -[ (2n-1) sum_i d_i b_{k-e_i} + (n-1) sum_i b_{k-2e_i} ],

with n = |k| and b_0 = 1/|d|.  Terms with a negative index component
vanish.  Working with the *scaled* derivatives keeps magnitudes bounded
and removes all factorials from the M2L contraction.
"""

from __future__ import annotations

import numpy as np

from repro.expansions.multiindex import MultiIndexSet
from repro.util.arrays import frozen_cache

__all__ = ["scaled_derivative_tensors", "derivative_recurrence_plan"]


@frozen_cache
def derivative_recurrence_plan(order: int):
    """Precompute, per multi-index, the source positions for the recurrence.

    Returns ``(mis, steps)`` where ``steps[j]`` for |k_j| >= 1 is a tuple
    ``(n, first, second)``; ``first`` lists (axis, position of k - e_axis)
    and ``second`` lists positions of k - 2 e_axis (only in-range entries).
    """
    mis = MultiIndexSet(order)
    steps = []
    for j in range(mis.n):
        k = mis.indices[j]
        n = int(mis.degrees[j])
        if n == 0:
            steps.append(None)
            continue
        first = []
        second = []
        for axis in range(3):
            if k[axis] >= 1:
                down = k.copy()
                down[axis] -= 1
                first.append((axis, mis.position(tuple(down))))
            if k[axis] >= 2:
                down2 = k.copy()
                down2[axis] -= 2
                second.append(mis.position(tuple(down2)))
        steps.append((n, tuple(first), tuple(second)))
    return mis, tuple(steps)


@frozen_cache
def _degree_plan(order: int):
    """:func:`derivative_recurrence_plan` by degree: per ``n >= 1`` the
    column span ``lo:hi`` of its indices and ``(3, hi - lo)`` tables of
    their ``first`` terms' axes and positions and their ``second`` terms'
    positions, in plan order; a missing term reads the zero column."""
    mis, steps = derivative_recurrence_plan(order)
    plan = []
    for n in range(1, order + 1):
        cols = np.nonzero(mis.degrees == n)[0]
        table = np.zeros((3, 3, cols.size), dtype=np.int64)  # axes, first, second
        table[1:] = mis.n
        for c, j in enumerate(cols):
            _, first, second = steps[j]
            for t, (axis, pos) in enumerate(first):
                table[:2, t, c] = axis, pos
            table[2, : len(second), c] = second
        plan.append((n, cols[0], cols[-1] + 1, *table))
    return mis, tuple(plan)


def scaled_derivative_tensors(displacements: np.ndarray, order: int) -> np.ndarray:
    """b_alpha(d) for all |alpha| <= order; shape (m, n_indices).

    ``displacements`` is (m, 3) and must be nonzero vectors (the FMM only
    ever evaluates these between well-separated cell centers).

    One pass per degree (degree ``n`` reads ``n - 1`` and ``n - 2``).  Each
    sum starts at zero and adds its terms in plan order, as a per-index
    loop does; adding a missing term's zero changes no bit (a sum started
    at ``+0`` is never ``-0``).
    """
    d = np.atleast_2d(np.asarray(displacements, dtype=float))
    m = d.shape[0]
    mis, plan = _degree_plan(order)
    r2 = np.einsum("mk,mk->m", d, d)
    if np.any(r2 <= 0.0):
        raise ValueError("zero displacement passed to derivative tensors")
    inv_r2 = 1.0 / r2
    d = d.T  # rows: one index's values over the batch, gathered whole
    out = np.zeros((mis.n + 1, m))
    out[0] = np.sqrt(inv_r2)
    for n, lo, hi, axes, first, second in plan:
        acc, s = np.zeros((2, hi - lo, m))
        for t in range(3):
            acc += d[axes[t]] * out[first[t]]
            s += out[second[t]]
        acc *= 2 * n - 1
        acc += (n - 1) * s
        out[lo:hi] = -(acc * inv_r2) / n
    return np.ascontiguousarray(out[:-1].T)
