"""Regularized Stokeslets (Cortez 2001; Cortez, Fauci & Medovikov 2005).

The paper's second test problem (§VIII-B, §IX-B) is a fluid-dynamics
simulation of immersed flexible boundaries using the method of regularized
Stokeslets.  The velocity field induced at x by a regularized point force
f located at y, with blob parameter eps, is

    u(x) = f (r^2 + 2 eps^2) / (8 pi mu (r^2 + eps^2)^{3/2})
         + (f . d) d / (8 pi mu (r^2 + eps^2)^{3/2}),   d = x - y, r = |d|

which is the standard formula for the blob
phi_eps(r) = 15 eps^4 / (8 pi (r^2 + eps^2)^{7/2}).

We implement the exact near-field (P2P) evaluation: the near field's tiles
run in one compiled call (``stokeslet_tiles`` in ``_p2p.c``, built on first
use by :mod:`repro.kernels._native`), and ``pairwise`` — the dense block,
and each tile's stacked blocks where no compiler resolves — is NumPy.  The far
field in the paper's implementation goes through harmonic multipole
machinery whose only property the evaluation uses is its cost (M2L
approximately 4x the gravitational M2L); the cost profile below carries
exactly that, per the DESIGN.md substitution table.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import _native
from repro.kernels.base import Kernel, KernelCostProfile, separation_tiles

__all__ = ["RegularizedStokesletKernel"]


class RegularizedStokesletKernel(Kernel):
    """Velocity field of regularized point forces in Stokes flow."""

    name = "stokeslet"
    value_dim = 3
    strength_dim = 3

    def __init__(self, *, epsilon: float = 1e-2, viscosity: float = 1.0) -> None:
        if not 0 < epsilon < np.inf:
            raise ValueError(f"regularization epsilon must be finite and positive, got {epsilon}")
        if not 0 < viscosity < np.inf:
            raise ValueError(f"viscosity must be finite and positive, got {viscosity}")
        self.epsilon = float(epsilon)
        self.viscosity = float(viscosity)

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
        """Velocity of one dense block: :meth:`_stacked_pairwise` of the
        one-block stack.  Both outputs are the velocity (see
        :meth:`gradient`)."""
        t, s = (np.asarray(a, dtype=float) for a in (targets, sources))
        f = np.atleast_2d(np.asarray(strengths, dtype=float))
        if f.shape != s.shape:
            raise ValueError(f"strengths must be (n_sources, 3), got {f.shape}")
        diagonal = exclude_self and len(t) == len(s)
        return tuple(None if u is None else u[0] for u in self._stacked_pairwise(
            t[None], s[None], f[None], potential=potential, gradient=gradient, diagonal=diagonal))

    def _stacked_pairwise(self, t, s, f, *, potential, gradient, diagonal=False):
        """The NumPy body, fused per axis over a ``(G, T, 3)`` x ``(G, S,
        3)`` stack: the Laplace pattern (:meth:`LaplaceKernel.pairwise`) —
        per-axis separations over
        :func:`~repro.kernels.base.separation_tiles`, one ``r^2 + eps^2``
        per pair serving both coefficients, row-wise reductions along the
        source axis — so the row contract holds."""
        fx, fy, fz = fs = np.ascontiguousarray(f.transpose(2, 0, 1))
        u_t = np.zeros((3, *t.shape[:2]))
        eps2 = self.epsilon**2
        for g, rows, d, h1, (h2, fd, tmp) in separation_tiles(t, s, 3):
            h1 += eps2
            np.sqrt(h1, out=h2)
            h2 *= h1
            np.divide(1.0, h2, out=h2)  # coefficient of (f.d) d
            h1 += eps2
            h1 *= h2  # coefficient of f: (r^2 + 2 eps^2) / (r^2 + eps^2)^1.5
            if diagonal:
                # regularized kernels are finite at r=0; "exclude_self" still
                # means skipping the self term, matching the FMM P2P contract.
                i = np.arange(rows.start, rows.stop)
                h1[:, i - rows.start, i] = 0.0
                h2[:, i - rows.start, i] = 0.0
            # (f.d) d is even in d, so the walk's d = s - t serves as is
            np.multiply(d[0], fx[g, None], out=fd)
            np.multiply(d[1], fy[g, None], out=tmp)
            fd += tmp
            np.multiply(d[2], fz[g, None], out=tmp)
            fd += tmp
            fd *= h2
            for k in range(3):
                out = u_t[k, g, rows]
                np.einsum("gts,gs->gt", h1, fs[k, g], out=out)
                out += np.einsum("gts,gts->gt", fd, d[k])
        u_t *= self._scale
        u = np.ascontiguousarray(u_t.transpose(1, 2, 0))
        return (u if potential else None, u if gradient else None)

    @property
    def _scale(self) -> float:
        """``1 / (8 pi mu)``, applied once per row by both bodies."""
        return 1.0 / (8.0 * np.pi * self.viscosity)

    def near_tiles(self, pts, q, plan, tiles, pot, grad):
        """One call into ``stokeslet_tiles`` for all of ``tiles``: forces
        staged straight from ``q`` (float64 ``(n, 3)``, C-contiguous) along
        the plan's leaf runs, ``pot`` and/or ``grad`` rows written by index
        — the row :meth:`pairwise` computes, summed in eight fixed lanes
        (within 1e-13 of it, not bitwise).  The base class's gather of
        each tile over the NumPy body where no compiler resolves."""
        lib = _native.library()
        if lib is None:
            return super().near_tiles(pts, q, plan, tiles, pot, grad)
        lib.stokeslet_tiles(pts, q, plan, tiles, self.epsilon**2, self._scale, pot, grad)

    def evaluate(self, targets, sources, strengths, *, exclude_self=False):
        return self.pairwise(targets, sources, strengths, exclude_self=exclude_self)[0]

    def gradient(self, targets, sources, strengths, *, exclude_self=False):
        """Velocity is already the quantity advanced in time; for interface
        symmetry ``gradient`` returns the same velocity field."""
        return self.evaluate(targets, sources, strengths, exclude_self=exclude_self)

    def self_interaction(self, positions, strengths, *, gradient=False):
        # at r = 0: u = f * 2 eps^2 / (8 pi mu eps^3) = f / (4 pi mu eps)
        f = np.atleast_2d(np.asarray(strengths, dtype=float))
        return f / (4.0 * np.pi * self.viscosity * self.epsilon)

    def interaction_flops(self) -> float:
        # three output components, dot products, regularized denominators
        return 60.0

    @property
    def cost_profile(self) -> KernelCostProfile:
        # Paper §IX-B: "the M2L cost for the fluid dynamics problem is
        # about 4x the M2L cost for the gravitational problem."  The other
        # expansion ops scale with the three vector components.
        return KernelCostProfile(
            {
                "M2L": 4.0,
                "P2M": 3.0,
                "M2M": 3.0,
                "L2L": 3.0,
                "L2P": 3.0,
                "P2P": 3.0,
            }
        )
