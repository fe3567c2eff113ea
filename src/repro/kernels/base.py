"""Kernel interface.

A :class:`Kernel` provides the exact pairwise interaction (used by P2P and
by direct-sum reference computations) plus a :class:`KernelCostProfile`
describing the *relative* arithmetic cost of each FMM operation for this
kernel.  The cost profile is what lets the machine model reproduce the
paper's §IX-B observation that the fluid-dynamics (regularized Stokeslet)
problem has an M2L roughly 4× as expensive as the gravitational problem.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Kernel", "KernelCostProfile"]

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

        The near field's single entry point.  The default runs
        :meth:`evaluate` and :meth:`gradient` separately; a kernel whose
        two outputs share arithmetic (Laplace: one ``1/r`` per pair)
        overrides this and derives the other two from it.
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
