"""repro — Dynamic Load Balancing of the Adaptive Fast Multipole Method in
Heterogeneous Systems (Overman, Prins, Miller & Minion, IPDPSW 2013).

A production-quality Python reproduction of the paper's full system:

* an adaptive (variable-depth) FMM with exact Cartesian-Taylor and
  spherical-harmonic expansion backends (:mod:`repro.fmm`,
  :mod:`repro.expansions`, :mod:`repro.tree`);
* a heterogeneous machine model — OpenMP-style task scheduling on
  simulated multicore CPUs and a warp/block model of the tiled all-pairs
  CUDA kernel on simulated GPUs (:mod:`repro.runtime`, :mod:`repro.gpu`,
  :mod:`repro.machine`);
* the observed-coefficient cost model and time prediction of §IV
  (:mod:`repro.costmodel`);
* the three-state dynamic load balancer with Enforce_S and
  FineGrainedOptimize (:mod:`repro.balance`);
* a time-stepped N-body simulation driver (:mod:`repro.sim`) and one
  experiment harness per table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import (GravityKernel, plummer, build_adaptive, FMMSolver)
    ps = plummer(10_000, seed=0)
    tree = build_adaptive(ps.positions, S=64)
    result = FMMSolver(GravityKernel(G=1.0), order=4).solve(
        tree, ps.strengths, gradient=True)
    accelerations = result.gradient
"""

from repro.balance import BalancerConfig, BalancerState, DynamicLoadBalancer
from repro.costmodel import ObservedCoefficients, predict_times
from repro.distributions import (
    ParticleSet,
    compact_plummer,
    gaussian_blobs,
    plummer,
    uniform_cube,
)
from repro.expansions import CartesianExpansion, SphericalExpansion
from repro.fmm import FMMResult, FMMSolver, accuracy_report
from repro.geometry import Box, bounding_box
from repro.kernels import (
    GravityKernel,
    LaplaceKernel,
    RegularizedStokesletKernel,
    StokesletFMMSolver,
    direct_evaluate,
)
from repro.machine import (
    HeterogeneousExecutor,
    MachineSpec,
    StepTiming,
    system_a,
    system_b,
)
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.sim import Simulation, SimulationConfig
from repro.tree import (
    AdaptiveOctree,
    build_adaptive,
    build_interaction_lists,
    build_uniform,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveOctree",
    "BalancerConfig",
    "BalancerState",
    "Box",
    "CartesianExpansion",
    "DynamicLoadBalancer",
    "FMMResult",
    "FMMSolver",
    "GravityKernel",
    "HeterogeneousExecutor",
    "LaplaceKernel",
    "MachineSpec",
    "MetricsRegistry",
    "ObservedCoefficients",
    "ParticleSet",
    "RegularizedStokesletKernel",
    "Simulation",
    "SimulationConfig",
    "SphericalExpansion",
    "StepTiming",
    "StokesletFMMSolver",
    "Telemetry",
    "Tracer",
    "accuracy_report",
    "bounding_box",
    "build_adaptive",
    "build_interaction_lists",
    "build_uniform",
    "compact_plummer",
    "direct_evaluate",
    "gaussian_blobs",
    "plummer",
    "predict_times",
    "system_a",
    "system_b",
    "uniform_cube",
]
