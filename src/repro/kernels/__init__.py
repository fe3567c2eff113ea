"""Interaction kernels: exact pairwise physics plus per-kernel cost profiles."""

from repro.kernels._native import p2p_backend
from repro.kernels.base import Kernel, KernelCostProfile
from repro.kernels.laplace import GravityKernel, LaplaceKernel
from repro.kernels.stokeslet import RegularizedStokesletKernel
from repro.kernels.stokeslet_fmm import StokesletFMMResult, StokesletFMMSolver
from repro.kernels.direct import direct_evaluate

__all__ = [
    "Kernel",
    "KernelCostProfile",
    "LaplaceKernel",
    "GravityKernel",
    "RegularizedStokesletKernel",
    "StokesletFMMResult",
    "StokesletFMMSolver",
    "direct_evaluate",
    "p2p_backend",
]
