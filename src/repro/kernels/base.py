"""Kernel interface.

A :class:`Kernel` provides the exact pairwise interaction (used by P2P and
by direct-sum reference computations) plus a :class:`KernelCostProfile`
describing the *relative* arithmetic cost of each FMM operation for this
kernel.  The cost profile is what lets the machine model reproduce the
paper's §IX-B observation that the fluid-dynamics (regularized Stokeslet)
problem has an M2L roughly 4× as expensive as the gravitational problem.

:meth:`Kernel.pairwise` evaluates one dense ``(T, 3)`` x ``(S, 3)`` block.
The contract every implementation keeps: a target row's output bits
depend on its own sources and data only — never on ``T`` or on which
other rows share the call — so any cut of a block's targets gives the same
bits.  The Laplace kernels keep it in one compiled all-pairs loop
(:mod:`repro.kernels._native`, one row sum per target in eight fixed
lanes); :func:`separation_tiles` is the cache-sized walk the NumPy bodies
— the Stokeslet's, and the Laplace fallback where no compiler resolves —
are built on.  Those bodies also take a stack of ``G`` same-shape blocks
in one call (:meth:`Kernel._stacked_pairwise`), block ``g``'s bits those
of its own call.

:meth:`Kernel.near_tiles` is the near field's entry point: tiles of a
near-field plan, written to the body rows by index.  Its default makes one
stacked call per tile, which is what runs where no compiler resolves; the
Laplace kernels and the Stokeslet read the plan in place in one compiled
call instead.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EXPANSION_OPS", "FMM_OPS", "Kernel", "KernelCostProfile", "separation_tiles",
]

#: Pairs in the near field's unit of work, the tile: what the plan cuts
#: at, and so the grain of deadline checks, engine chunks and the shards'
#: LPT.  The compiled loops have no temporary that depends on it; for the
#: NumPy bodies it is the float64 elements per temporary (128 KB each, five
#: to seven live at once).  Measured, not tunable: see
#: DESIGN.md section 7 for the sweep it was read from.
_TILE_ELEMS = 16384

#: The six FMM operations of the paper (the adaptive W/X work is folded
#: into P2P).
FMM_OPS = ("P2M", "M2M", "M2L", "L2L", "L2P", "P2P")
#: The expansion operations — every op but the near field's P2P, in
#: ``FMM_OPS`` order: the CPU side of the cost model.
EXPANSION_OPS = tuple(op for op in FMM_OPS if op != "P2P")


@dataclass(frozen=True)
class KernelCostProfile:
    """Relative arithmetic weight of each FMM operation for one kernel.

    Weights are dimensionless multipliers applied on top of the machine
    model's per-operation base costs; a Laplace kernel is all-ones, the
    Stokeslet profile carries ``M2L=4`` (and a ~3× P2P, three velocity
    components).
    """

    weights: dict[str, float] = field(default_factory=dict)

    def weight(self, op: str) -> float:
        return self.weights.get(op, 1.0)


def separation_tiles(targets, sources, n_work: int):
    """Walk a batch of dense blocks in tiles of ``_TILE_ELEMS`` pairs.

    ``targets`` ``(G, T, 3)``, ``sources`` ``(G, S, 3)``.  Yields ``(g, t,
    (dx, dy, dz), r2, work)`` per tile: the group and target-row slices, the
    per-axis separations ``d = s - t`` and their squared norm as ``(g, t,
    S)`` arrays, and ``n_work`` scratch arrays of that shape (all reused by
    the next tile).  Small blocks are stacked along ``g``, a block larger
    than the budget is walked over target rows; either way a block's rows
    see the same operations whatever shares the call, and the tiling
    depends on ``(T, S)`` alone.
    """
    n_groups, nt, ns = targets.shape[0], targets.shape[1], sources.shape[1]
    if not (n_groups and nt and ns):
        return
    tx, ty, tz = np.ascontiguousarray(targets.transpose(2, 0, 1))[..., None]
    sx, sy, sz = np.ascontiguousarray(sources.transpose(2, 0, 1))[:, :, None]
    rows = min(nt, max(1, _TILE_ELEMS // ns))
    stack = min(n_groups, max(1, _TILE_ELEMS // (rows * ns)))
    full = tuple(np.empty((4 + n_work, stack, rows, ns)))
    for g0 in range(0, n_groups, stack):
        g = slice(g0, min(g0 + stack, n_groups))
        sxg, syg, szg, txg, tyg, tzg = sx[g], sy[g], sz[g], tx[g], ty[g], tz[g]
        for lo in range(0, nt, rows):
            t = slice(lo, min(lo + rows, nt))
            m, n = g.stop - g0, t.stop - lo
            # a short tile is the last along its axis (and the other axis
            # then has one tile), so the sliced views stay contiguous
            dx, dy, dz, r2, *work = (
                full if (m, n) == (stack, rows) else [a[:m, :n] for a in full]
            )
            np.subtract(sxg, txg[:, t], out=dx)
            np.subtract(syg, tyg[:, t], out=dy)
            np.subtract(szg, tzg[:, t], out=dz)
            # unary square: one operand read where multiply(d, d) makes two
            np.square(dx, out=r2)
            np.square(dy, out=work[0])
            r2 += work[0]
            np.square(dz, out=work[0])
            r2 += work[0]
            yield g, t, (dx, dy, dz), r2, work


class Kernel(abc.ABC):
    """Abstract pairwise interaction kernel.

    ``value_dim`` is the dimensionality of the field produced at a target
    (1 for potential-like kernels, 3 for velocity kernels); ``strength_dim``
    is the per-source strength dimensionality.
    """

    name: str = "kernel"
    value_dim: int = 1
    strength_dim: int = 1
    #: True when the kernel's far field is representable by the Laplace
    #: multipole machinery (scaled by :attr:`laplace_scale`).
    supports_multipole: bool = False
    #: factor mapping the raw Laplace expansion potential (sum q/r) onto
    #: this kernel's potential.
    laplace_scale: float = 1.0
    #: factor mapping grad(sum q/r) onto this kernel's ``gradient`` output
    #: (for gravity the gradient method returns the *acceleration* -grad phi,
    #: so the two scales differ in sign).
    laplace_gradient_scale: float = 1.0

    @abc.abstractmethod
    def evaluate(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        strengths: np.ndarray,
        *,
        exclude_self: bool = False,
    ) -> np.ndarray:
        """Dense interaction: field at each target due to all sources.

        Returns shape (n_targets, value_dim).  With ``exclude_self`` the
        diagonal is skipped (targets and sources are the same array).
        """

    @abc.abstractmethod
    def gradient(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        strengths: np.ndarray,
        *,
        exclude_self: bool = False,
    ) -> np.ndarray:
        """Gradient of the field (e.g. acceleration), shape (n_targets, 3)."""

    def pairwise(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        strengths: np.ndarray,
        *,
        potential: bool = True,
        gradient: bool = False,
        exclude_self: bool = False,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Field and/or gradient of one dense block: ``(pot | None, grad | None)``.

        ``(T, 3)`` targets x ``(S, 3)`` sources with ``(S[, d])``
        strengths give ``(T, dim)`` outputs (see the module docstring for
        the contract).  The default runs :meth:`evaluate` and
        :meth:`gradient` separately; a kernel whose outputs share
        arithmetic (Laplace: one ``1/r`` per pair) overrides this and
        derives the other two from it.
        """
        pot = (
            self.evaluate(targets, sources, strengths, exclude_self=exclude_self)
            if potential
            else None
        )
        grad = (
            self.gradient(targets, sources, strengths, exclude_self=exclude_self)
            if gradient
            else None
        )
        return pot, grad

    def near_tiles(self, pts, q, plan, tiles, pot, grad) -> None:
        """Tiles ``tiles`` of the near-field ``plan`` (a
        :class:`~repro.fmm.nearfield.NearFieldPlan`) written to their target
        rows of ``pot`` / ``grad`` (``None`` = not wanted).

        The default, and the fallback where no compiler resolves: per tile,
        its groups stacked (:meth:`NearFieldPlan.stacked_tiles
        <repro.fmm.nearfield.NearFieldPlan.stacked_tiles>`), the padded
        source slots at zero strength, one :meth:`_stacked_pairwise` call,
        its rows scattered.  A kernel with a compiled row (Laplace, the
        Stokeslet) overrides this with one call that reads the plan in
        place.
        """
        want = dict(potential=pot is not None, gradient=grad is not None)
        for t_idx, s_idx, padded in plan.stacked_tiles(plan.checked_tiles(pts, q, tiles)):
            if not (t_idx.size and s_idx.size):
                continue
            qs = q.take(s_idx, axis=0)
            qs[padded] = 0.0
            p, gr = self._stacked_pairwise(pts.take(t_idx, axis=0), pts.take(s_idx, axis=0), qs,
                                           **want)
            if pot is not None:
                pot[t_idx] = p[..., 0] if pot.ndim == 1 else p
            if grad is not None:
                grad[t_idx] = gr

    def _stacked_pairwise(self, targets, sources, strengths, *, potential, gradient):
        """:meth:`pairwise` of ``G`` same-shape blocks at once: ``(G, T,
        3)`` x ``(G, S, 3)`` with ``(G, S[, d])`` strengths give ``(G, T,
        dim)`` outputs, block ``g``'s bits those of its own 2-D call.  The
        default makes that call per block; the NumPy bodies of the Laplace
        kernels and the Stokeslet take the stack whole."""
        # C-ordered, so a block looks the same whatever the stack's layout
        stack = [np.ascontiguousarray(a) for a in (targets, sources, strengths)]
        blocks = [self.pairwise(*b, potential=potential, gradient=gradient) for b in zip(*stack)]
        return tuple(None if b[0] is None else np.stack(b) for b in zip(*blocks))

    def self_interaction(
        self, positions: np.ndarray, strengths: np.ndarray, *, gradient: bool = False
    ) -> np.ndarray:
        """Per-body contribution of a body onto itself, shape (n, dim).

        Zero for singular kernels; finite for regularized/softened kernels,
        where P2P must subtract it when the source set includes the target.
        """
        pts = np.atleast_2d(np.asarray(positions, dtype=float))
        dim = 3 if (gradient or self.value_dim == 3) else self.value_dim
        return np.zeros((pts.shape[0], dim))

    @property
    def cost_profile(self) -> KernelCostProfile:
        return KernelCostProfile()

    def interaction_flops(self) -> float:
        """Approximate FLOPs of one source-target pair interaction (P2P)."""
        return 20.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
