"""Arithmetic work models for the FMM operations.

Each of the six operations "has a predictable cost in FLOPS that can be
expressed in terms of the number of bodies in a leaf node and the number
of retained terms in the multipole expansion" (§I-C).
:func:`atomic_units` gives the FLOPs of the smallest natural unit of each
operation (per body for P2M/L2P, per child shift for M2M, per node pair
for M2L, ...); the task-graph builder and the machine models price with
it.
"""

from __future__ import annotations

from functools import lru_cache

from repro.expansions.multiindex import MultiIndexSet
from repro.kernels.base import FMM_OPS, Kernel, KernelCostProfile

__all__ = ["atomic_units"]

#: FLOPs per multiply-add pair in the contraction inner loops.
_FMA = 2.0


@lru_cache(maxsize=None)
def _n_coeffs(order: int) -> int:
    return MultiIndexSet(order).n


def atomic_units(order: int, kernel: Kernel | None = None) -> dict[str, float]:
    """FLOPs of the smallest unit of each op at expansion order ``order``.

    Units: P2M and L2P per *body*; M2M per *child shift*; L2L per *node*;
    M2L per *node pair*; P2P per *body pair*.  The kernel's cost profile
    scales each op (e.g. Stokeslet M2L = 4x Laplace).
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
    }
    return {op: base[op] * profile.weight(op) for op in FMM_OPS}
