"""The per-node Laplace far-field sweep — the reference the batched,
harmonic-width sweep of :mod:`repro.fmm.farfield` is tested against.

One translation operator per node or pair, through the per-node helpers
of :mod:`tests.oracles.expansions`: every Cartesian operator here — P2M,
M2M, M2L, L2L, L2P and the gradient — is the dense one over all
``n_coeffs`` coefficients, so agreement with the production sweep also
checks the harmonic reduction (DESIGN.md §9).  Nothing under ``src/``
calls it.
"""

from __future__ import annotations

import numpy as np

from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree
from tests.oracles import expansions as ops

__all__ = ["laplace_far_field_scalar"]


def laplace_far_field_scalar(
    tree: AdaptiveOctree,
    lists: InteractionLists,
    expansion,
    *,
    charges: np.ndarray,
    gradient: bool = False,
    potential: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-node far-field sweep — the equivalence oracle.

    ``charges`` is (n,) monopole strengths.  Returns ``(potential,
    gradient)`` with the unrequested entry None — the signature of
    :func:`repro.fmm.farfield.laplace_far_field`.
    """
    pts = tree.points
    nodes = tree.nodes
    eff = tree.effective_nodes()
    leaves = [nid for nid in eff if nodes[nid].is_leaf]
    internal = [nid for nid in eff if not nodes[nid].is_leaf]
    exp = expansion

    dtype = complex if exp.backend == "spherical" else float
    multipoles: dict[int, np.ndarray] = {}
    locals_: dict[int, np.ndarray] = {nid: np.zeros(exp.n_coeffs, dtype=dtype) for nid in eff}

    # ---- upward sweep
    for nid in leaves:
        idx = tree.bodies(nid)
        multipoles[nid] = ops.p2m(exp, pts[idx], charges[idx], nodes[nid].center)
    for nid in sorted(internal, key=lambda n: -nodes[n].level):
        M = np.zeros(exp.n_coeffs, dtype=dtype)
        for cid in tree.effective_children(nid):
            M += ops.m2m(exp, multipoles[cid], nodes[nid].center - nodes[cid].center)
        multipoles[nid] = M

    # ---- V phase (batched M2L)
    pair_targets: list[int] = []
    pair_sources: list[int] = []
    for nid in eff:
        for src in lists.v_list.get(nid, ()):
            pair_targets.append(nid)
            pair_sources.append(src)
    if pair_targets:
        M_stack = np.stack([multipoles[s] for s in pair_sources])
        D = np.stack(
            [nodes[t].center - nodes[s].center for t, s in zip(pair_targets, pair_sources)]
        )
        L_stack = ops.m2l(exp, M_stack, D)
        for row, t in enumerate(pair_targets):
            locals_[t] += L_stack[row]

    # ---- downward sweep (eff is preorder: parents first)
    for nid in eff:
        for cid in tree.effective_children(nid):
            locals_[cid] += ops.l2l(exp, locals_[nid], nodes[cid].center - nodes[nid].center)

    # ---- leaf evaluation
    pot = np.zeros(tree.n_bodies) if potential else None
    grad = np.zeros((tree.n_bodies, 3)) if gradient else None
    for nid in leaves:
        idx = tree.bodies(nid)
        if idx.size == 0:
            continue
        tgt = pts[idx]
        if potential:
            pot[idx] += ops.l2p(exp, locals_[nid], tgt, nodes[nid].center)
        if gradient:
            grad[idx] += ops.l2p_gradient(exp, locals_[nid], tgt, nodes[nid].center)
    return pot, grad
