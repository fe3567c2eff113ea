"""Laplace / Newtonian gravity kernels.

``LaplaceKernel`` computes the bare 1/r potential and its gradient;
``GravityKernel`` wraps it with a gravitational constant and optional
Plummer softening so the leapfrog dynamics of the time-dependent
experiments stay well behaved through close encounters.

Every dense block of either goes through ``LaplaceKernel.pairwise`` — one
seam with two bodies: the compiled all-pairs loop of ``_p2p.c`` (built on
first use by :mod:`repro.kernels._native`) and, where no compiler
resolves, the NumPy body it replaces.  The near field's tiles go through
``LaplaceKernel.near_tiles``: the same row loop reading the plan's index
arrays in place, or the base class's gather of each tile over the NumPy
body.
Nothing selects between them but what the host can do.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import _native
from repro.kernels.base import Kernel, KernelCostProfile, separation_tiles

__all__ = ["LaplaceKernel", "GravityKernel"]


class LaplaceKernel(Kernel):
    """phi(t) = sum_s q_s / |t - s|, grad = -sum_s q_s (t-s)/|t-s|^3."""

    name = "laplace"
    value_dim = 1
    strength_dim = 1
    supports_multipole = True

    def __init__(self, *, softening: float = 0.0) -> None:
        if not 0 <= softening < np.inf:
            raise ValueError(f"softening must be finite and non-negative, got {softening}")
        self.softening = float(softening)

    @property
    def laplace_scale(self) -> float:
        return 1.0

    @property
    def laplace_gradient_scale(self) -> float:
        return 1.0

    def pairwise(
        self,
        targets,
        sources,
        strengths,
        *,
        potential=True,
        gradient=False,
        exclude_self=False,
    ):
        """Fused potential + gradient of one dense block.

        One call into the compiled all-pairs loop of ``_p2p.c``
        (:mod:`repro.kernels._native` builds it on first use): per target
        row one pass over the block's sources summed in eight fixed lanes,
        one ``1/sqrt(r2 + eps2)`` per pair serving both outputs — so a
        row's bits depend on its own sources and data only.  Where no
        compiler resolves, :meth:`_pairwise_numpy` keeps the same contract
        and the same rules, several times slower; the two agree to rounding
        (<= 1e-14 of the array maximum), not bitwise.  Either way the sums
        are scaled by :attr:`laplace_scale` / :attr:`laplace_gradient_scale`.

        Three zero rules, both bodies: a pair whose ``1/r`` is not finite
        (zero separation, a NaN coordinate) has weight exactly 0 — this is
        what removes a body's own pair when its leaf is in its source set,
        and makes a repeated source with zero strength an exact zero;
        ``exclude_self`` additionally zeroes the diagonal of square blocks.
        """
        t, s = (np.asarray(a, dtype=float) for a in (targets, sources))
        # contiguous rows: a strided operand would get another reduction kernel
        q = np.ascontiguousarray(strengths, dtype=float).reshape(-1)
        lib = _native.library()
        args = (self.softening**2, exclude_self and len(t) == len(s), potential, gradient)
        if lib is not None:
            return self._scaled(*lib.pairwise(t, s, q, *args))
        return self._scaled(*(None if a is None else a[0]
                              for a in self._pairwise_numpy(t[None], s[None], q[None], *args)))

    def _stacked_pairwise(self, targets, sources, strengths, *, potential, gradient):
        """The NumPy body over the whole stack where no compiler resolves,
        else one compiled call per block."""
        if _native.library() is not None:
            return super()._stacked_pairwise(targets, sources, strengths,
                                             potential=potential, gradient=gradient)
        q = np.ascontiguousarray(strengths, dtype=float).reshape(sources.shape[:2])
        return self._scaled(*self._pairwise_numpy(targets, sources, q, self.softening**2, False,
                                                  potential, gradient))

    def _scaled(self, pot, grad):
        """``(laplace_scale * pot, laplace_gradient_scale * grad)``: the
        sums as this kernel reports them (exact for Laplace's 1.0)."""
        return (None if pot is None else self.laplace_scale * pot,
                None if grad is None else self.laplace_gradient_scale * grad)

    @staticmethod
    def _pairwise_numpy(t, s, q, eps2, diagonal, potential, gradient):
        """The NumPy body over a ``(G, T, 3)`` x ``(G, S, 3)`` stack:
        per-axis layout over :func:`~repro.kernels.base.separation_tiles`,
        every reduction along the contiguous source axis, one row at a
        time."""
        pot = np.zeros(t.shape[:2]) if potential else None
        grad_t = np.zeros((3, *t.shape[:2])) if gradient else None
        with np.errstate(divide="ignore"):
            for g, rows, d, r, (w,) in separation_tiles(t, s, 1):
                if eps2:
                    r += eps2
                np.sqrt(r, out=r)
                np.divide(1.0, r, out=r)
                r[~np.isfinite(r)] = 0.0
                if diagonal:
                    i = np.arange(rows.start, rows.stop)
                    r[:, i - rows.start, i] = 0.0
                if potential:
                    np.einsum("gts,gs->gt", r, q[g], out=pot[g, rows])
                if gradient:
                    # d = s - t: the sign that makes sum(w * d) the gradient
                    np.square(r, out=w)
                    w *= r
                    w *= q[g, None]
                    for k in range(3):
                        np.einsum("gts,gts->gt", w, d[k], out=grad_t[k, g, rows])
        return (
            pot[..., None] if potential else None,
            np.ascontiguousarray(grad_t.transpose(1, 2, 0)) if gradient else None,
        )

    def near_tiles(self, pts, q, plan, tiles, pot, grad):
        """One call into ``p2p_tiles`` for all of ``tiles``: sources staged
        straight from ``pts`` along the plan's leaf runs, rows written by
        index, scaled by :attr:`laplace_scale` /
        :attr:`laplace_gradient_scale` (so :class:`GravityKernel` needs no
        override) — bitwise the base class's gather over compiled blocks,
        without its gathers, padding and scatters.  That gather, over the
        NumPy body, where no compiler resolves."""
        lib = _native.library()
        if lib is None:
            return super().near_tiles(pts, q, plan, tiles, pot, grad)
        scales = (self.laplace_scale, self.laplace_gradient_scale)
        lib.near_tiles(pts, q, plan, tiles, self.softening**2, scales, pot, grad)

    def evaluate(self, targets, sources, strengths, *, exclude_self=False):
        return self.pairwise(
            targets, sources, strengths, potential=True, gradient=False,
            exclude_self=exclude_self,
        )[0]

    def gradient(self, targets, sources, strengths, *, exclude_self=False):
        # grad phi = -sum q (t - s) / r^3
        return self.pairwise(
            targets, sources, strengths, potential=False, gradient=True,
            exclude_self=exclude_self,
        )[1]

    def self_interaction(self, positions, strengths, *, gradient=False):
        pts = np.atleast_2d(np.asarray(positions, dtype=float))
        n = pts.shape[0]
        if gradient:
            return np.zeros((n, 3))  # d = 0 kills the softened gradient too
        out = np.zeros((n, 1))
        if self.softening > 0:
            q = np.asarray(strengths, dtype=float).reshape(-1)
            out[:, 0] = q / self.softening
        return out

    def interaction_flops(self) -> float:
        return 20.0

    @property
    def cost_profile(self) -> KernelCostProfile:
        return KernelCostProfile({})


class GravityKernel(LaplaceKernel):
    """Gravitational potential and acceleration.

    ``evaluate`` returns the gravitational potential
    phi_g = -G sum m_s / r (negative); ``gradient`` returns the
    *acceleration* a = -grad phi_g = G sum m_s (s - t)/r^3 — the quantity
    the integrator consumes — which equals +G times the raw Laplace
    gradient grad(sum m/r).  Both are the Laplace sums times
    :attr:`laplace_scale` / :attr:`laplace_gradient_scale`, applied by
    every body of :class:`LaplaceKernel`, so nothing else is overridden.
    """

    name = "gravity"

    def __init__(self, *, G: float = 1.0, softening: float = 0.0) -> None:
        super().__init__(softening=softening)
        if not np.isfinite(G):
            raise ValueError(f"G must be finite, got {G}")
        self.G = float(G)

    @property
    def laplace_scale(self) -> float:
        return -self.G

    @property
    def laplace_gradient_scale(self) -> float:
        return self.G

    def self_interaction(self, positions, strengths, *, gradient=False):
        scale = self.G if gradient else -self.G
        return scale * super().self_interaction(
            positions, strengths, gradient=gradient
        )
