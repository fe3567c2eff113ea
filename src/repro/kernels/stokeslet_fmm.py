"""Composite Stokeslet FMM: exact far field via harmonic decomposition.

The singular Stokeslet velocity (scale 1/(8 pi mu)) is four harmonic
Laplace fields (Tornberg & Greengard, J. Comput. Phys. 227, 2008).  With
``c`` the tree's root-box centre and ``r(x) = x - c``:

    u_i(x) = sum_y [ f_i / |d|  +  d_i (f . d) / |d|^3 ],     d = x - y
           = phi_i(x) - sum_j r_j(x) ∂_i phi_j(x) + ∂_i phi_3(x)

with

    phi_j(x) = sum_y f_j / |d|            (j = 0, 1, 2: potential + gradient)
    phi_3(x) = sum_y (r(y) . f) / |d|     (gradient only used)

because ``-∂_i phi_j = sum_y f_j d_i / |d|^3``, so the two gradient terms
sum to ``sum_y (r(x) - r(y)) . f  d_i / |d|^3`` with ``r(x) - r(y) = d``.
The whole far field is one charge pass of four channels over one tree
(``charges`` ``(n, 4)``: ``f_0, f_1, f_2, r(y) . f``): the gradient of a
charge channel carries the ``1/r^3`` term, so no dipole source is needed.
Centring on the root box keeps the cancellation between the last two
terms harmless when the cloud sits far from the origin.  The
near field uses the *regularized* Stokeslet exactly; in the far field the
regularization is negligible (relative error O(eps^2 / r^2), with r at
least one well-separated cell away), which is the standard practice for
regularized-Stokeslet FMMs and is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmm.dispatch import PassListSolver
from repro.fmm.farfield import laplace_far_field
from repro.fmm.nearfield import evaluate_near_field
from repro.kernels.base import EXPANSION_OPS
from repro.kernels.stokeslet import RegularizedStokesletKernel
from repro.obs import Telemetry
from repro.tree.cache import ListCache
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["N_FAR_PASSES", "StokesletFMMResult", "StokesletFMMSolver", "stokeslet_op_counts"]

#: charge channels of a Stokeslet solve's one far-field pass (phi_0 ..
#: phi_3): each costs one scalar Laplace sweep's expansion work
N_FAR_PASSES = 4


def stokeslet_op_counts(counts: dict[str, int]) -> dict[str, int]:
    """A Stokeslet solve's op counts from its tree's scalar ones: every
    expansion op once per charge channel, the near field (P2P) once."""
    return {
        op: n * N_FAR_PASSES if op in EXPANSION_OPS else n for op, n in counts.items()
    }


@dataclass
class StokesletFMMResult:
    """Velocities from one composite Stokeslet solve."""

    velocity: np.ndarray  # (n, 3)
    op_counts: dict[str, int]
    lists: InteractionLists


class StokesletFMMSolver(PassListSolver):
    """FMM for the method of regularized Stokeslets.

    Velocities at all bodies due to regularized point forces at the same
    bodies; exact near field, four-channel harmonic far field — on whichever
    back end ``engine`` names (dispatch and degrade ladder:
    :class:`~repro.fmm.dispatch.PassListSolver`).
    """

    solver_label = "stokeslet"

    def __init__(
        self,
        kernel: RegularizedStokesletKernel | None = None,
        *,
        order: int = 4,
        expansion=None,
        list_cache: ListCache | None = None,
        telemetry: Telemetry | None = None,
        engine=None,
    ) -> None:
        super().__init__(
            kernel if kernel is not None else RegularizedStokesletKernel(),
            order=order,
            expansion=expansion,
            list_cache=list_cache,
            telemetry=telemetry,
            engine=engine,
        )

    def solve(
        self,
        tree: AdaptiveOctree,
        forces: np.ndarray,
        *,
        lists: InteractionLists | None = None,
        deadline=None,
    ) -> StokesletFMMResult:
        """Velocities at every body; ``deadline`` as in
        :meth:`repro.fmm.evaluator.FMMSolver.solve`."""
        f = np.atleast_2d(np.asarray(forces, dtype=float))
        if f.shape != (tree.n_bodies, 3):
            raise ValueError(f"forces must be (n, 3), got {f.shape}")
        r = tree.points - tree.root_box.center

        # far field: channels phi_j (charges f_j) and phi_3 (charges
        # r(y) . f), potential and gradient (phi_3's potential goes unused);
        # near field: exact regularized Stokeslets
        charges = np.column_stack((f, np.einsum("ij,ij->i", r, f)))
        lists, (pot, grad), u_near, _ = self._solve_passes(
            tree, lists, charges, dict(potential=True, gradient=True),
            f, dict(potential=True, gradient=False), deadline,
        )
        # u_i = phi_i - sum_j r_j ∂_i phi_j + ∂_i phi_3 (module docstring)
        u = pot[:, :3].copy()
        for j in range(3):
            u -= r[:, j : j + 1] * grad[:, j]
        u += grad[:, 3]
        u *= 1.0 / (8.0 * np.pi * self.kernel.viscosity)
        u += u_near
        return StokesletFMMResult(
            velocity=u, op_counts=stokeslet_op_counts(lists.op_counts()), lists=lists
        )

    # ---------------------------------------------------------- serial sweeps
    def _far_field(self, tree, lists, **source):
        return laplace_far_field(
            tree, lists, self.expansion, tracer=self.telemetry.tracer, **source
        )

    def _near_field(self, tree, lists, q, **flags):
        return evaluate_near_field(self.kernel, tree, lists, q, **flags)
