"""The adaptive FMM solve.

One :meth:`FMMSolver.solve` call performs the full algorithm of §I-C on an
:class:`~repro.tree.octree.AdaptiveOctree`:

1. **Upward sweep** — P2M at every leaf, M2M combining children into
   parents, deepest level first.
2. **Translation** — M2L across every node's V list, one stage of at most
   13 direction-class gemms over sibling octets
   (:func:`~repro.fmm.farfield.m2l`).
3. **Downward sweep** — L2L from parents to children, L2P at leaves.
4. **Near field** — dense P2P between every leaf and its near-field
   sources (exact kernel arithmetic), the W/X work of the adaptive tree
   folded in as the paper does.

The solver also returns the per-operation application counts, which are
what the paper's cost model consumes.

Pass an :class:`~repro.runtime.engine.ExecutionEngine` and the solve runs
as a real task graph — the far-field chain (one task per level and one
M2L task) beside the near-field chunks on pool threads — with results
bitwise identical to the serial path: both run the DAG the pass
declares (:meth:`~repro.fmm.farfield.FarFieldPass.add_tasks`).
The engine's measured per-task timings land in ``last_engine_result``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmm.dispatch import PassListSolver
from repro.fmm.farfield import laplace_far_field
from repro.fmm.nearfield import evaluate_near_field
from repro.tree.lists import InteractionLists
from repro.tree.octree import AdaptiveOctree

__all__ = ["FMMSolver", "FMMResult"]


@dataclass
class FMMResult:
    """Output of one FMM solve."""

    potential: np.ndarray  # (n,) scalar kernels; (n, 3) vector kernels
    gradient: np.ndarray | None  # (n, 3) when requested
    op_counts: dict[str, int]
    lists: InteractionLists


class FMMSolver(PassListSolver):
    """Adaptive FMM driver for a kernel and an expansion backend: one
    single-channel charge pass + the near field, on whichever back end
    ``engine`` names
    (see :class:`~repro.fmm.dispatch.PassListSolver` for the constructor
    arguments, the dispatch and the degrade ladder)."""

    solver_label = "laplace"

    # ----------------------------------------------------------------- solve
    def solve(
        self,
        tree: AdaptiveOctree,
        strengths: np.ndarray,
        *,
        gradient: bool = False,
        potential: bool = True,
        lists: InteractionLists | None = None,
        deadline=None,
    ) -> FMMResult:
        """Evaluate the kernel field at every body in ``tree``.

        ``lists`` may be passed in when the caller already built them for
        the current tree configuration (the balancer reuses them).
        ``potential=False`` (with ``gradient=True``) skips the potential
        arithmetic in the near field — the time-stepping driver only needs
        accelerations, and the near field dominates the solve.
        ``deadline`` (a :class:`repro.util.timing.Deadline`) bounds the
        solve on every back end: expiry raises
        :class:`~repro.util.timing.SolveDeadlineError` at the next stage
        boundary, and the solver and its engine stay usable.
        """
        if not potential and not gradient:
            raise ValueError("at least one of potential/gradient must be requested")
        if not self.kernel.supports_multipole:
            raise ValueError(
                f"kernel {self.kernel.name!r} has no multipole far field; "
                "use StokesletFMMSolver or direct evaluation"
            )
        q = np.asarray(strengths, dtype=float).reshape(-1)
        if q.shape[0] != tree.n_bodies:
            raise ValueError("strengths must have one entry per body")

        flags = dict(potential=potential, gradient=gradient)
        lists, (far_pot, far_grad), near_pot, near_grad = self._solve_passes(
            tree, lists, q, flags, q, flags, deadline
        )

        pot_total = None
        if potential:
            pot_total = self.kernel.laplace_scale * far_pot + near_pot
        grad_total = None
        if gradient:
            grad_total = self.kernel.laplace_gradient_scale * far_grad + near_grad
        return FMMResult(
            potential=pot_total,
            gradient=grad_total,
            op_counts=lists.op_counts(),
            lists=lists,
        )

    # ---------------------------------------------------------- serial sweeps
    def _far_field(self, tree, lists, **source):
        return laplace_far_field(
            tree, lists, self.expansion, tracer=self.telemetry.tracer, **source
        )

    def _near_field(self, tree, lists, q, **flags):
        return evaluate_near_field(self.kernel, tree, lists, q, **flags)

    def _run_shards(self, tree, lists, charges, far, near_q, near, deadline):
        # the one-channel session has a public name of its own
        # (``ProcessEngine.solve_laplace``: callers and profilers use it)
        assert charges is near_q and far == near
        far_pot, far_grad, near_pot, near_grad = self.engine.solve_laplace(
            tree, lists, self.expansion, self.kernel, near_q,
            deadline=deadline, **near,
        )
        return (far_pot, far_grad), near_pot, near_grad
