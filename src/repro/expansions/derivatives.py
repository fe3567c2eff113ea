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


def scaled_derivative_tensors(displacements: np.ndarray, order: int) -> np.ndarray:
    """b_alpha(d) for all |alpha| <= order; shape (m, n_indices).

    ``displacements`` is (m, 3) and must be nonzero vectors (the FMM only
    ever evaluates these between well-separated cell centers).
    """
    d = np.atleast_2d(np.asarray(displacements, dtype=float))
    m = d.shape[0]
    mis, steps = derivative_recurrence_plan(order)
    r2 = np.einsum("mk,mk->m", d, d)
    if np.any(r2 <= 0.0):
        raise ValueError("zero displacement passed to derivative tensors")
    inv_r2 = 1.0 / r2
    out = np.empty((m, mis.n))
    out[:, 0] = np.sqrt(inv_r2)
    for j in range(1, mis.n):
        n, first, second = steps[j]
        acc = np.zeros(m)
        for axis, pos in first:
            acc += d[:, axis] * out[:, pos]
        acc *= 2 * n - 1
        if second and n > 1:
            s = np.zeros(m)
            for pos in second:
                s += out[:, pos]
            acc += (n - 1) * s
        out[:, j] = -(acc * inv_r2) / n
    return out
