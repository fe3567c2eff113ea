"""Composite Stokeslet FMM: exact far field via harmonic decomposition.

The singular Stokeslet velocity (scale 1/(8 pi mu)) splits into harmonic
potentials (the classical Tornberg–Greengard style decomposition):

    u_i(t) = sum_s [ f_i^s / r  +  d_i (f^s . d) / r^3 ],     d = t - s
           = phi_i(t) + t_i A(t) - B_i(t)

with

    phi_i(t) = sum_s f_i^s / r            (3 monopole Laplace fields)
    A(t)     = sum_s (f^s . d) / r^3      (1 dipole field, moments f^s)
    B_i(t)   = sum_s s_i (f^s . d) / r^3  (3 dipole fields, moments s_i f^s)

so the entire far field is seven scalar Laplace passes over one tree —
monopole and dipole P2M/P2L are both supported by the expansion backends.
The near field uses the *regularized* Stokeslet exactly; in the far field
the regularization is negligible (relative error O(eps^2 / r^2), with r at
least one well-separated cell away), which is the standard practice for
regularized-Stokeslet FMMs and is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmm.dispatch import FarPass, PassListSolver
from repro.fmm.farfield import PassSpec, laplace_far_field
from repro.fmm.nearfield import evaluate_near_field
from repro.kernels.stokeslet import RegularizedStokesletKernel
from repro.obs import Telemetry
from repro.tree.cache import ListCache
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["StokesletFMMResult", "StokesletFMMSolver"]


@dataclass
class StokesletFMMResult:
    """Velocities from one composite Stokeslet solve."""

    velocity: np.ndarray  # (n, 3)
    op_counts: dict[str, int]
    lists: InteractionLists
    #: number of scalar Laplace far-field passes executed
    n_passes: int = 7


class StokesletFMMSolver(PassListSolver):
    """FMM for the method of regularized Stokeslets.

    Velocities at all bodies due to regularized point forces at the same
    bodies; exact near field, seven-pass harmonic far field — on whichever
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
        pts = tree.points

        # far field: phi_i (monopoles f_i), A (dipoles f), B_i (dipoles s_i f)
        passes = (
            [FarPass(PassSpec("charges"), f[:, i], f"phi{i}") for i in range(3)]
            + [FarPass(PassSpec("dipoles"), f, "A")]
            + [
                FarPass(PassSpec("dipoles"), pts[:, i : i + 1] * f, f"B{i}")
                for i in range(3)
            ]
        )
        # near field: exact regularized Stokeslets
        lists, far, u_near, _ = self._solve_passes(
            tree, lists, passes, f, deadline=deadline
        )
        phi = [pot for pot, _ in far]

        u = np.zeros((tree.n_bodies, 3))
        for i in range(3):
            u[:, i] += phi[i]
        u += pts * phi[3][:, None]
        for i in range(3):
            u[:, i] -= phi[4 + i]
        u *= 1.0 / (8.0 * np.pi * self.kernel.viscosity)
        u += u_near

        counts = lists.op_counts()
        # seven scalar passes: scale the expansion-op counts accordingly
        for op in ("P2M", "M2M", "M2L", "L2L", "L2P", "M2P", "P2L"):
            counts[op] = counts.get(op, 0) * len(passes)
        return StokesletFMMResult(velocity=u, op_counts=counts, lists=lists)

    # ---------------------------------------------------------- serial sweeps
    def _far_field(self, tree, lists, **source):
        return laplace_far_field(
            tree, lists, self.expansion, tracer=self.telemetry.tracer, **source
        )

    def _near_field(self, tree, lists, q, **flags):
        return evaluate_near_field(self.kernel, tree, lists, q, **flags)
