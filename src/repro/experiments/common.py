"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.laplace import GravityKernel
from repro.machine.executor import HeterogeneousExecutor, StepTiming
from repro.machine.spec import MachineSpec, system_a
from repro.tree.octree import AdaptiveOctree, build_adaptive

__all__ = [
    "default_kernel",
    "hetero_executor",
    "sweep_s",
    "geometric_s_values",
    "optimal_s",
]


def default_kernel() -> Kernel:
    """The gravitational test problem of §VIII-B (unit masses, G folded in)."""
    return GravityKernel(G=1.0, softening=1e-4)


def hetero_executor(
    *,
    n_cores: int = 10,
    n_gpus: int = 4,
    order: int = 4,
    kernel: Kernel | None = None,
    machine: MachineSpec | None = None,
) -> HeterogeneousExecutor:
    machine = machine if machine is not None else system_a()
    machine = machine.with_resources(n_cores=n_cores, n_gpus=min(n_gpus, machine.n_gpus))
    return HeterogeneousExecutor(machine, order=order, kernel=kernel or default_kernel())


def geometric_s_values(lo: int = 16, hi: int = 2048, n: int = 12) -> list[int]:
    """A geometric ladder of S values for cost sweeps."""
    vals = np.unique(np.round(np.geomspace(lo, hi, n)).astype(int))
    return [int(v) for v in vals]


def sweep_s(
    points: np.ndarray,
    executor: HeterogeneousExecutor,
    s_values: list[int],
    *,
    tree_factory=build_adaptive,
) -> list[tuple[int, StepTiming, AdaptiveOctree]]:
    """Time one FMM step for every S; returns (S, timing, tree) triples."""
    out = []
    for S in s_values:
        tree = tree_factory(points, S)
        out.append((S, executor.time_step(tree), tree))
    return out


def optimal_s(
    points: np.ndarray,
    executor: HeterogeneousExecutor,
    s_values: list[int],
    *,
    tree_factory=build_adaptive,
) -> tuple[int, StepTiming, AdaptiveOctree]:
    """The (S, timing, tree) of the ladder's least modeled compute time
    (the first such S on a tie)."""
    return min(
        sweep_s(points, executor, s_values, tree_factory=tree_factory),
        key=lambda run: run[1].compute_time,
    )
