"""Kernel interface.

A :class:`Kernel` provides the exact pairwise interaction (used by P2P and
by direct-sum reference computations) plus a :class:`KernelCostProfile`
describing the *relative* arithmetic cost of each FMM operation for this
kernel.  The cost profile is what lets the machine model reproduce the
paper's §IX-B observation that the fluid-dynamics (regularized Stokeslet)
problem has an M2L roughly 4× as expensive as the gravitational problem.

:meth:`Kernel.pairwise` has a batch axis: ``(G, T, 3)`` targets against
``(G, S, 3)`` sources is ``G`` independent same-shape blocks in one call,
which is how the near field amortises the per-call cost over small
leaves.  The contract every implementation keeps: block ``g``'s output
bits depend on its own ``(T, S)`` shape and data only — never on ``G`` or
on which other blocks share the call — so any cut of a batch into calls,
down to the plain 2-D form, gives the same bits.  The Laplace kernels keep
it in one compiled all-pairs loop (:mod:`repro.kernels._native`, one
in-order row sum per target); :func:`separation_tiles` is the shared
cache-sized walk the NumPy bodies — the Stokeslet, and the Laplace
fallback where no compiler resolves — are built on.

:meth:`Kernel.near_tiles` is the near field's entry point: tiles of a
near-field plan, written to the body rows by index.  Its default is the
gather seam over :meth:`Kernel.pairwise`; the Laplace kernels read the
plan in place in one compiled call and give the same bits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Kernel", "KernelCostProfile", "as_batch", "separation_tiles"]

#: Pairs in the near field's unit of work, the tile: what the plan cuts
#: at, and so the grain of deadline checks, engine chunks and the shards'
#: LPT.  The compiled Laplace loop has no temporary that depends on it;
#: for the NumPy bodies it is the float64 elements per temporary (128 KB
#: each, five to seven live at once).  Measured, not tunable: see
#: DESIGN.md section 7 for the sweep it was read from.
_TILE_ELEMS = 16384

#: The six FMM operations of the paper plus the two adaptive extras.
FMM_OPS = ("P2M", "M2M", "M2L", "L2L", "L2P", "P2P", "M2P", "P2L")


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

    def scaled(self, factor: float) -> "KernelCostProfile":
        return KernelCostProfile({k: v * factor for k, v in self.weights.items()})


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


def as_batch(targets, sources):
    """``(targets, sources, batched)`` as float ``(G, T, 3)`` / ``(G, S, 3)``
    arrays; the plain 2-D form becomes the ``G = 1`` batch."""
    t = np.asarray(targets, dtype=float)
    s = np.asarray(sources, dtype=float)
    if t.ndim == 3:
        return t, s, True
    return t.reshape(1, -1, 3), s.reshape(1, -1, 3), False


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

        The near field's single entry point.  Besides one ``(T, 3)`` x
        ``(S, 3)`` block it takes a batch — ``(G, T, 3)`` targets, ``(G, S,
        3)`` sources, ``(G, S[, d])`` strengths — and returns ``(G, T,
        dim)`` outputs (see the module docstring for the contract).  The
        default loops the 2-D call per block, and that runs
        :meth:`evaluate` and :meth:`gradient` separately; a kernel whose
        outputs share arithmetic (Laplace: one ``1/r`` per pair) overrides
        this and derives the other two from it.
        """
        if np.ndim(targets) == 3:
            # C-ordered, so a block looks the same whatever the batch's layout
            batch = [np.ascontiguousarray(a) for a in (targets, sources, strengths)]
            blocks = [
                self.pairwise(t, s, q, potential=potential, gradient=gradient,
                              exclude_self=exclude_self)
                for t, s, q in zip(*batch)
            ]
            return tuple(None if b[0] is None else np.stack(b) for b in zip(*blocks))
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

        The gather seam: per tile, gather the ``(G, T)`` targets and the
        ``(G, S)`` sources of the plan's padded source index (built once
        per plan, on first use), zero the padded strengths, make one
        batched :meth:`pairwise` call and scatter its rows.  A kernel that
        can read the plan in place (Laplace, compiled) overrides this with
        the same bits.
        """
        for k in plan.checked_tiles(pts, q, tiles).tolist():
            t_idx, s_idx, src_cnt = plan.tile(k)
            if t_idx.size == 0 or s_idx.size == 0:
                continue
            qs = q.take(s_idx, axis=0)
            qs[np.arange(s_idx.shape[1]) >= src_cnt[:, None]] = 0.0  # padded slots
            block, g = self.pairwise(pts.take(t_idx, axis=0), pts.take(s_idx, axis=0), qs,
                                     potential=pot is not None, gradient=grad is not None)
            if pot is not None:
                pot[t_idx] = block[..., 0] if pot.ndim == 1 else block
            if grad is not None:
                grad[t_idx] = g

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
