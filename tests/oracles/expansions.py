"""Per-node expansion operators, each composed from the row basis or class
operator the far-field sweep applies (``rel = x - center``; a shift is new
centre minus old), so a check through them checks what production builds.
The one independent reference is :func:`dense_m2l`, the Cartesian M2L over
all ``n_coeffs`` that the harmonic reduction (DESIGN.md §9) is tested
against.  Nothing under ``src/`` calls this module.
"""

from __future__ import annotations

import numpy as np

from repro.expansions.derivatives import scaled_derivative_tensors

_CHUNK = 1024  # pairs per M2L chunk: bounds the (chunk, n, n) temporaries


def p2m(exp, points, q, center):
    sign = 1.0 if exp.p2m_sign is None else exp.p2m_sign
    return np.asarray(q, dtype=float) @ (exp.l2p_basis(np.atleast_2d(points) - center) * sign)


def p2l(exp, points, q, center):
    return np.asarray(q, dtype=float) @ exp.p2l_basis(np.atleast_2d(points) - center)


def m2m(exp, M, shift):
    return M @ exp.m2m_class_operator(shift)


def l2l(exp, L, shift):
    return L @ exp.l2l_class_operator(shift)


def l2p(exp, L, targets, center):
    return (exp.l2p_basis(np.atleast_2d(targets) - center) @ L).real


def m2p(exp, M, targets, center):
    return (exp.m2p_basis(np.atleast_2d(targets) - center) @ M).real


def l2p_gradient(exp, L, targets, center):
    basis = exp.l2p_basis(np.atleast_2d(targets) - center)
    return np.stack([(basis @ (L @ A)).real for A in exp.l2p_gradient_matrices()], axis=1)


def m2p_gradient(exp, M, targets, center):
    basis = exp.m2p_grad_basis(np.atleast_2d(targets) - center)
    return np.stack([(basis @ (M @ A)).real for A in exp.m2p_gradient_matrices()], axis=1)


def m2l(exp, M, D):
    """Row ``i`` of ``M`` (a 1-D ``M`` is one row) across ``D[i] = z - c``:
    dense on the Cartesian back end, the class operators on the spherical."""
    if np.ndim(M) == 1:
        return m2l(exp, M[None], np.reshape(D, (1, 3)))[0]
    if exp.m2l_reduction is not None:
        return dense_m2l(exp, M, D)
    ops = (A for lo in range(0, len(M), _CHUNK) for A in exp.m2l_class_operators(D[lo:lo + _CHUNK]))
    return np.stack([m @ A for m, A in zip(M, ops)])


def dense_m2l(exp, moments, displacements):
    """Cartesian M2L over all ``n_coeffs``, row i across displacements[i]:
    ``L[i, b] = sum_a moments[i, a] C[a, b] B[i, idx[a, b]]``, ``B`` the
    order-2p scaled derivative tensors."""
    M = np.atleast_2d(np.asarray(moments, dtype=float))
    D = np.atleast_2d(np.asarray(displacements, dtype=float))
    idx, coef = exp.mis.m2l_tables()
    out = np.empty((M.shape[0], exp.mis.n))
    for lo in range(0, M.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, M.shape[0])
        B = scaled_derivative_tensors(D[lo:hi], 2 * exp.order)
        # T[i, a, b] = coef[a, b] * B[i, idx[a, b]]
        T = B[:, idx] * coef[None, :, :]
        out[lo:hi] = np.einsum("ia,iab->ib", M[lo:hi], T)
    return out
