"""Per-node expansion operators (``rel = x - center``; a shift is new
centre minus old).  On the Cartesian back end they are the dense ones over
all ``n_coeffs`` Taylor coefficients — ``powers``, the binomial shift
matrices, :func:`dense_m2l` — the independent reference the harmonic-width
sweep (DESIGN.md §9) is tested against; on the spherical back end, which
has no reduction, they are composed from the row basis and class operators
the sweep applies.  The M2P / P2L bases below are references too: the far
field folds that work into the near field, so only the expansion
identities read them.
:func:`operator_set_per_displacement` is the operator set assembled one
displacement and one sub-block at a time.  Nothing under ``src/`` calls
this module.
"""

from __future__ import annotations

import numpy as np

from repro.expansions.derivatives import scaled_derivative_tensors
from repro.expansions.operators import M2L_DIRECTIONS
from repro.expansions.multiindex import MultiIndexSet
from repro.expansions.spherical import _irregular_table, _nm_index

_CHUNK = 1024  # pairs per M2L chunk: bounds the (chunk, n, n) temporaries


# ------------------------------------------------------------ M2P / P2L bases
# ``rel = x - center``.  Cartesian: the scaled derivatives b_alpha; P2L sums
# ``q_i b_alpha(-rel)``, M2P dots ``b_alpha(rel)`` with the moments.
# Spherical: L_j^k = sum_i q_i (-1)^j I_j^k(z - x_i) for P2L, phi = Re sum
# M_n^m I_n^m(y - c) for M2P.


def p2l_basis(exp, rel):
    rel = np.atleast_2d(rel)
    if exp.backend == "cartesian":
        return scaled_derivative_tensors(-rel, exp.order)
    return ((-1.0) ** exp.ns)[None, :] * _irregular_table(-rel, exp.order)


def m2p_basis(exp, rel, order=None):
    rel = np.atleast_2d(rel)
    order = exp.order if order is None else order
    if exp.backend == "cartesian":
        return scaled_derivative_tensors(rel, order)
    return _irregular_table(rel, order)


def raise_tables(mis):
    """Per-axis ``(self_idx, raised_idx)`` into the order+1 set:
    ``raised_idx[i]`` is the position of ``alpha_i + e_k`` in
    ``MultiIndexSet(order + 1)``, as d/dy_k b_alpha = (alpha_k + 1)
    b_(alpha + e_k)."""
    big = MultiIndexSet(mis.order + 1)
    out = []
    for k in range(3):
        raised = np.empty(mis.n, dtype=np.int64)
        for i in range(mis.n):
            a = mis.indices[i].copy()
            a[k] += 1
            raised[i] = big.position(tuple(a))
        out.append((np.arange(mis.n, dtype=np.int64), raised))
    return tuple(out)


def _irregular_gradient_coeffs(p, moments):
    """G_k with grad_k phi = Re sum G_k I (order p+1), phi = Re sum M_n^m
    I_n^m, by the ladder identities

        dx I_n^m = [I_{n+1}^{m+1} - I_{n+1}^{m-1}] / 2
        dy I_n^m = -i [I_{n+1}^{m+1} + I_{n+1}^{m-1}] / 2
        dz I_n^m = -I_{n+1}^m
    """
    ns, ms, _ = _nm_index(p)
    _, _, pos_big = _nm_index(p + 1)
    gx, gy, gz = (np.zeros((p + 2) ** 2, dtype=complex) for _ in range(3))
    for j, (n, m) in enumerate(zip(ns, ms)):
        M = moments[j]
        if M == 0:
            continue
        up = pos_big[(n + 1, m + 1)]
        dn = pos_big[(n + 1, m - 1)]
        gx[up] += M / 2.0
        gx[dn] -= M / 2.0
        gy[up] += -1j * M / 2.0
        gy[dn] += -1j * M / 2.0
        gz[pos_big[(n + 1, m)]] -= M
    return [gx, gy, gz]


def m2p_gradient_matrices(exp):
    """A_k into the order+1 basis: ``grad[:, k] = Re(m2p_basis(rel, order +
    1) @ (moments @ A_k))``."""
    if exp.backend == "cartesian":
        mis = exp.mis
        n_big = MultiIndexSet(mis.order + 1).n
        mats = []
        for k, (self_idx, raised_idx) in enumerate(raise_tables(mis)):
            A = np.zeros((mis.n, n_big))
            A[self_idx, raised_idx] = (mis.indices[self_idx, k] + 1).astype(float)
            mats.append(A)
        return tuple(mats)
    eye = np.eye(exp.n_coeffs)
    rows = [_irregular_gradient_coeffs(exp.order, e) for e in eye]
    return tuple(np.array([r[k] for r in rows]) for k in range(3))


# ------------------------------------------------------------- per-node ops


def _dense(exp):
    return exp.backend == "cartesian"


def l2p_basis(exp, rel):
    """The L2P rows over every coefficient: ``powers(rel)`` (Cartesian)."""
    rel = np.atleast_2d(rel)
    return exp.mis.powers(rel) if _dense(exp) else exp.l2p_basis(rel)


def l2p_gradient_matrices(exp):
    """Per-axis maps of a local's coefficients to those of its derivative:
    over every Cartesian coefficient, ``d/dy_k (y - z)^beta``."""
    if not _dense(exp):
        return exp.l2p_gradient_matrices()
    mats = []
    for src, dst, coef in exp.mis.gradient_tables():
        A = np.zeros((exp.mis.n, exp.mis.n))
        A[src, dst] = coef
        mats.append(A)
    return tuple(mats)


def p2m(exp, points, q, center):
    # Cartesian M_alpha = sum q (c - x)^alpha; spherical conj(R(x - c))
    rel = np.atleast_2d(points) - center
    return np.asarray(q, dtype=float) @ l2p_basis(exp, -rel if _dense(exp) else rel)


def p2l(exp, points, q, center):
    return np.asarray(q, dtype=float) @ p2l_basis(exp, np.atleast_2d(points) - center)


def m2m(exp, M, shift):
    if _dense(exp):
        return M @ exp.mis.m2m_matrix(np.asarray(shift, dtype=float)).T
    return M @ exp.m2m_class_operator(shift)


def l2l(exp, L, shift):
    if _dense(exp):
        return L @ exp.mis.l2l_matrix(np.asarray(shift, dtype=float)).T
    return L @ exp.l2l_class_operator(shift)


def l2p(exp, L, targets, center):
    return (l2p_basis(exp, np.atleast_2d(targets) - center) @ L).real


def m2p(exp, M, targets, center):
    return (m2p_basis(exp, np.atleast_2d(targets) - center) @ M).real


def l2p_gradient(exp, L, targets, center):
    basis = l2p_basis(exp, np.atleast_2d(targets) - center)
    return np.stack([(basis @ (L @ A)).real for A in l2p_gradient_matrices(exp)], axis=1)


def m2p_gradient(exp, M, targets, center):
    basis = m2p_basis(exp, np.atleast_2d(targets) - center, exp.order + 1)
    return np.stack([(basis @ (M @ A)).real for A in m2p_gradient_matrices(exp)], axis=1)


def m2l(exp, M, D):
    """Row ``i`` of ``M`` (a 1-D ``M`` is one row) across ``D[i] = z - c``:
    dense on the Cartesian back end, the class operators on the spherical."""
    if np.ndim(M) == 1:
        return m2l(exp, M[None], np.reshape(D, (1, 3)))[0]
    if _dense(exp):
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


def operator_set_per_displacement(expansion, h_root):
    """The arrays of ``OperatorSet.build(expansion, h_root)``, in its
    order, assembled the way the batched build replaced: one core
    build per displacement, then each direction block filled sub-block by
    sub-block (source child ``j``, target child ``i``: the core of ``2D +
    o_i - o_j``, zero where the children are adjacent)."""
    g = np.arange(-3, 4)
    disp = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    disp = disp[np.abs(disp).max(axis=1) >= 2]
    cores = {
        tuple(d.tolist()): expansion.m2l_class_operators(d[None, :] * h_root)[0]
        for d in disp
    }
    w = next(iter(cores.values())).shape[0]
    dtype = next(iter(cores.values())).dtype
    blocks = []
    for D in M2L_DIRECTIONS:
        block = np.zeros((8, w, 8, w), dtype=dtype)
        for j in range(8):
            for i in range(8):
                d = tuple(2 * D[k] + (i >> k & 1) - (j >> k & 1) for k in range(3))
                if d in cores:
                    block[j, :, i, :] = cores[d]
        blocks.append(block.reshape(8 * w, 8 * w))
    side = np.array([[o >> k & 1 for k in range(3)] for o in range(8)])
    offsets = (side - 0.5) * (h_root / 2)
    m2m = np.concatenate([expansion.m2m_class_operator(-d) for d in offsets])
    l2l = np.concatenate([expansion.l2l_class_operator(d) for d in offsets], axis=1)
    return [m2m, l2l, *blocks]
