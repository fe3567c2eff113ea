"""Arithmetic work models for the FMM operations.

Each of the six operations "has a predictable cost in FLOPS that can be
expressed in terms of the number of bodies in a leaf node and the number
of retained terms in the multipole expansion" (§I-C).  Two granularities
are provided:

* :func:`atomic_units` — FLOPs of the smallest natural unit of each
  operation (per body for P2M/L2P, per child shift for M2M, per node pair
  for M2L, ...), used by the task-graph builder;
* :func:`op_work_units` — FLOPs per *application* as counted by
  :meth:`repro.tree.lists.InteractionLists.op_counts` (per leaf, per
  internal node, per pair...), used for aggregate estimates.
"""

from __future__ import annotations

from repro.expansions.multiindex import MultiIndexSet
from repro.kernels.base import FMM_OPS, Kernel, KernelCostProfile

__all__ = ["atomic_units", "op_work_units", "work_profile"]

#: FLOPs per multiply-add pair in the contraction inner loops.
_FMA = 2.0


def _n_coeffs(order: int) -> int:
    return MultiIndexSet(order).n


def atomic_units(order: int, kernel: Kernel | None = None) -> dict[str, float]:
    """FLOPs of the smallest unit of each op at expansion order ``order``.

    Units: P2M and L2P per *body*; M2M per *child shift*; L2L per *node*;
    M2L per *node pair*; P2P per *body pair*; M2P and P2L per
    *(node, body)* term.  The kernel's cost profile scales each op (e.g.
    Stokeslet M2L = 4x Laplace).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    nc = _n_coeffs(order)
    nc2 = _n_coeffs(2 * order)
    profile = kernel.cost_profile if kernel is not None else KernelCostProfile()
    p2p_flops = kernel.interaction_flops() if kernel is not None else 20.0
    base = {
        "P2M": _FMA * nc,  # one monomial row per body
        "M2M": _FMA * nc * nc / 4.0,  # quarter-dense binomial shift matrix
        "M2L": _FMA * (6.0 * nc2 + nc * nc),  # derivative tensor + contraction
        "L2L": _FMA * nc * nc / 4.0,
        "L2P": _FMA * 4.0 * nc,  # potential + 3 gradient components
        "P2P": p2p_flops,
        "M2P": _FMA * 4.0 * nc,
        "P2L": _FMA * nc,
    }
    return {op: base[op] * profile.weight(op) for op in FMM_OPS}


def op_work_units(
    order: int, *, mean_leaf_count: float = 1.0, kernel: Kernel | None = None
) -> dict[str, float]:
    """FLOPs per application as counted by ``InteractionLists.op_counts``.

    P2M/L2P applications are per *body* (the shape-independent unit that
    makes observed coefficients transfer between trees); an M2M/L2L
    application is one parent<->child shift.  ``mean_leaf_count`` is kept
    for callers that still reason per-leaf (deprecated unit).
    """
    if mean_leaf_count < 0:
        raise ValueError("mean_leaf_count must be >= 0")
    a = atomic_units(order, kernel)
    return {
        "P2M": a["P2M"] * mean_leaf_count,
        "M2M": a["M2M"],
        "M2L": a["M2L"],
        "L2L": a["L2L"],
        "L2P": a["L2P"] * mean_leaf_count,
        "P2P": a["P2P"],
        "M2P": a["M2P"],
        "P2L": a["P2L"],
    }


def work_profile(
    op_counts: dict[str, int],
    order: int,
    *,
    mean_leaf_count: float = 1.0,
    kernel: Kernel | None = None,
) -> dict[str, float]:
    """Total FLOPs per operation for a solve with the given counts."""
    units = op_work_units(order, mean_leaf_count=mean_leaf_count, kernel=kernel)
    return {op: units[op] * float(op_counts.get(op, 0)) for op in FMM_OPS}
