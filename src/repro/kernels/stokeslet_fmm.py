"""Composite Stokeslet FMM: exact far field via harmonic decomposition.

The singular Stokeslet velocity (scale 1/(8 pi mu)) is four harmonic
Laplace fields (Tornberg & Greengard, J. Comput. Phys. 227, 2008).  With
``c`` the tree's root-box centre and ``r(x) = x - c``:

    u_i(x) = sum_y [ f_i / |d|  +  d_i (f . d) / |d|^3 ],     d = x - y
           = phi_i(x) - sum_j r_j(x) ∂_i phi_j(x) + ∂_i phi_3(x)

with

    phi_j(x) = sum_y f_j / |d|            (j = 0, 1, 2: potential + gradient)
    phi_3(x) = sum_y (r(y) . f) / |d|     (gradient only)

because ``-∂_i phi_j = sum_y f_j d_i / |d|^3``, so the two gradient terms
sum to ``sum_y (r(x) - r(y)) . f  d_i / |d|^3`` with ``r(x) - r(y) = d``.
The whole far field is four scalar charge passes over one tree: the
gradient of a charge pass carries the ``1/r^3`` term, so no dipole source
is needed.  Centring on the root box keeps the cancellation between the
last two terms harmless when the cloud sits far from the origin.  The
near field uses the *regularized* Stokeslet exactly; in the far field the
regularization is negligible (relative error O(eps^2 / r^2), with r at
least one well-separated cell away), which is the standard practice for
regularized-Stokeslet FMMs and is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmm.dispatch import FarPass, PassListSolver
from repro.fmm.farfield import laplace_far_field
from repro.fmm.nearfield import evaluate_near_field
from repro.kernels.base import EXPANSION_OPS
from repro.kernels.stokeslet import RegularizedStokesletKernel
from repro.obs import Telemetry
from repro.tree.cache import ListCache
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["N_FAR_PASSES", "StokesletFMMResult", "StokesletFMMSolver"]

#: scalar Laplace far-field passes per Stokeslet solve (phi_0 .. phi_3)
N_FAR_PASSES = 4


@dataclass
class StokesletFMMResult:
    """Velocities from one composite Stokeslet solve."""

    velocity: np.ndarray  # (n, 3)
    op_counts: dict[str, int]
    lists: InteractionLists
    #: number of scalar Laplace far-field passes executed
    n_passes: int = N_FAR_PASSES


class StokesletFMMSolver(PassListSolver):
    """FMM for the method of regularized Stokeslets.

    Velocities at all bodies due to regularized point forces at the same
    bodies; exact near field, four-pass harmonic far field — on whichever
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
        folded: bool = True,
        list_cache: ListCache | None = None,
        telemetry: Telemetry | None = None,
        engine=None,
    ) -> None:
        super().__init__(
            kernel if kernel is not None else RegularizedStokesletKernel(),
            order=order,
            expansion=expansion,
            folded=folded,
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

        # far field: phi_j (charges f_j) with potential and gradient, phi_3
        # (charges r(y) . f) with its gradient only
        passes = [FarPass(f[:, j], f"phi{j}", gradient=True) for j in range(3)]
        passes.append(
            FarPass(np.einsum("ij,ij->i", r, f), "phi3", potential=False, gradient=True)
        )
        # near field: exact regularized Stokeslets
        lists, far, u_near, _ = self._solve_passes(
            tree, lists, passes, f, deadline=deadline
        )
        # u_i = phi_i - sum_j r_j ∂_i phi_j + ∂_i phi_3 (module docstring)
        u = np.stack([pot for pot, _ in far[:3]], axis=1)
        for j in range(3):
            u -= r[:, j : j + 1] * far[j][1]
        u += far[3][1]
        u *= 1.0 / (8.0 * np.pi * self.kernel.viscosity)
        u += u_near

        counts = lists.op_counts()
        # one scalar sweep per pass: scale the expansion-op counts accordingly
        for op in EXPANSION_OPS:
            counts[op] = counts.get(op, 0) * N_FAR_PASSES
        return StokesletFMMResult(velocity=u, op_counts=counts, lists=lists)

    # ---------------------------------------------------------- serial sweeps
    def _far_field(self, tree, lists, **source):
        return laplace_far_field(
            tree, lists, self.expansion, tracer=self.telemetry.tracer, **source
        )

    def _near_field(self, tree, lists, q, **flags):
        return evaluate_near_field(self.kernel, tree, lists, q, **flags)
