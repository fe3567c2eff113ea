"""Laplace / Newtonian gravity kernels.

``LaplaceKernel`` computes the bare 1/r potential and its gradient;
``GravityKernel`` wraps it with a gravitational constant and optional
Plummer softening so the leapfrog dynamics of the time-dependent
experiments stay well behaved through close encounters.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, KernelCostProfile

__all__ = ["LaplaceKernel", "GravityKernel"]

#: float64 elements per ``(tile_rows, n_sources)`` temporary of
#: :meth:`LaplaceKernel.pairwise` (128 KB each, five live at once).  Measured,
#: not tunable: see DESIGN.md section 7 for the sweep it was read from.
_TILE_ELEMS = 16384


class LaplaceKernel(Kernel):
    """phi(t) = sum_s q_s / |t - s|, grad = -sum_s q_s (t-s)/|t-s|^3."""

    name = "laplace"
    value_dim = 1
    strength_dim = 1
    supports_multipole = True

    def __init__(self, *, softening: float = 0.0) -> None:
        if softening < 0:
            raise ValueError("softening must be non-negative")
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
        """Fused potential + gradient of one dense block, tiled over targets.

        Per-axis layout: the separations are three ``(rows, ns)`` arrays,
        one ``1/r`` per pair serves both outputs, and targets are walked in
        tiles of ``_TILE_ELEMS // ns`` rows so every temporary stays
        cache resident.  The tiling depends on ``(nt, ns)`` only, so two
        callers handing over the same block get the same bits.

        Zero separations and non-finite pairs contribute nothing (this is
        what removes a body's own pair when its leaf is in its source
        set); ``exclude_self`` additionally zeroes the diagonal of a
        square block.
        """
        t = np.atleast_2d(np.asarray(targets, dtype=float))
        s = np.atleast_2d(np.asarray(sources, dtype=float))
        q = np.asarray(strengths, dtype=float).reshape(-1)
        nt, ns = t.shape[0], s.shape[0]
        pot = np.zeros(nt) if potential else None
        grad_t = np.zeros((3, nt)) if gradient else None
        if nt and ns:
            tx, ty, tz = np.ascontiguousarray(t.T)[:, :, None]
            sx, sy, sz = np.ascontiguousarray(s.T)
            eps2 = self.softening**2
            diagonal = exclude_self and nt == ns
            rows = min(nt, max(1, _TILE_ELEMS // ns))
            dx, dy, dz, inv, w = np.empty((5, rows, ns))
            for lo in range(0, nt, rows):
                hi = min(lo + rows, nt)
                n = hi - lo
                ax, ay, az, r, ww = dx[:n], dy[:n], dz[:n], inv[:n], w[:n]
                # d = s - t: the sign that makes sum(w * d) the gradient
                np.subtract(sx, tx[lo:hi], out=ax)
                np.subtract(sy, ty[lo:hi], out=ay)
                np.subtract(sz, tz[lo:hi], out=az)
                np.multiply(ax, ax, out=r)
                np.multiply(ay, ay, out=ww)
                r += ww
                np.multiply(az, az, out=ww)
                r += ww
                if eps2:
                    r += eps2
                np.sqrt(r, out=r)
                with np.errstate(divide="ignore"):
                    np.divide(1.0, r, out=r)
                r[~np.isfinite(r)] = 0.0
                if diagonal:
                    i = np.arange(n)
                    r[i, i + lo] = 0.0
                if potential:
                    np.matmul(r, q, out=pot[lo:hi])
                if gradient:
                    np.multiply(r, r, out=ww)
                    ww *= r
                    ww *= q
                    np.einsum("ts,ts->t", ww, ax, out=grad_t[0, lo:hi])
                    np.einsum("ts,ts->t", ww, ay, out=grad_t[1, lo:hi])
                    np.einsum("ts,ts->t", ww, az, out=grad_t[2, lo:hi])
        return (
            pot[:, None] if potential else None,
            np.ascontiguousarray(grad_t.T) if gradient else None,
        )

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
    gradient grad(sum m/r).
    """

    name = "gravity"

    def __init__(self, *, G: float = 1.0, softening: float = 0.0) -> None:
        super().__init__(softening=softening)
        self.G = float(G)

    @property
    def laplace_scale(self) -> float:
        return -self.G

    @property
    def laplace_gradient_scale(self) -> float:
        return self.G

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
        pot, grad = super().pairwise(
            targets, sources, strengths, potential=potential, gradient=gradient,
            exclude_self=exclude_self,
        )
        # acceleration = -grad(phi_g) = +G * grad(sum m / r)
        return (
            -self.G * pot if potential else None,
            self.G * grad if gradient else None,
        )

    def self_interaction(self, positions, strengths, *, gradient=False):
        scale = self.G if gradient else -self.G
        return scale * super().self_interaction(
            positions, strengths, gradient=gradient
        )
