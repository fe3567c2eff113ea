"""Ablation studies for the design choices called out in DESIGN.md §5.

Each function returns an :class:`~repro.util.records.EventLog`; the
benchmark suite asserts the qualitative outcome.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import BarnesHut
from repro.costmodel.flops import atomic_units
from repro.distributions.generators import plummer
from repro.experiments.common import (
    default_kernel,
    geometric_s_values,
    hetero_executor,
    optimal_s,
)
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.spherical import SphericalExpansion
from repro.fmm.accuracy import accuracy_report
from repro.fmm.evaluator import FMMSolver
from repro.gpu.model import GPUKernelModel
from repro.gpu.partition import NearFieldWorkItem, near_field_work_items, partition_targets
from repro.kernels import LaplaceKernel, direct_evaluate
from repro.machine.executor import HeterogeneousExecutor
from repro.machine.spec import system_a
from repro.costmodel.coefficients import ObservedCoefficients
from repro.costmodel.predictor import predict_times
from repro.tree.lists import build_interaction_lists
from repro.tree.octree import build_adaptive
from repro.tree.uniform import build_uniform, uniform_depth_for
from repro.util.records import EventLog

__all__ = [
    "adaptive_vs_uniform",
    "barnes_hut_vs_fmm",
    "expansion_backends",
    "gpu_partition_strategies",
    "coefficient_prediction_quality",
    "endpoint_offload",
]


def adaptive_vs_uniform(*, n: int = 20000, order: int = 4, seed: int = 0) -> EventLog:
    """Adaptive vs uniform decomposition at each tree's own best S.

    On a non-uniform (Plummer) distribution the adaptive tree should reach
    a lower optimal compute time (§I-B's motivation).
    """
    ps = plummer(n, seed=seed)
    executor = hetero_executor(order=order)
    log = EventLog()
    s_values = geometric_s_values(16, 2048, 12)
    for label, factory in (
        ("adaptive", build_adaptive),
        ("uniform", lambda pts, S: build_uniform(pts, depth=uniform_depth_for(n, S))),
    ):
        S, timing, tree = optimal_s(ps.positions, executor, s_values, tree_factory=factory)
        log.add(
            decomposition=label,
            best_S=S,
            best_compute_time=timing.compute_time,
            n_leaves=len(tree.leaves()),
            depth=tree.depth(),
        )
    return log


def expansion_backends(*, n: int = 2000, order: int = 5, S: int = 50, seed: int = 0) -> EventLog:
    """Cartesian Taylor vs spherical-harmonic operators: accuracy + cost."""
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    log = EventLog()
    for name, expansion in (
        ("cartesian", CartesianExpansion(order)),
        ("spherical", SphericalExpansion(order)),
    ):
        tree = build_adaptive(ps.positions, S)
        solver = FMMSolver(kernel, expansion=expansion)
        t0 = time.perf_counter()
        res = solver.solve(tree, ps.strengths, gradient=False)
        wall = time.perf_counter() - t0
        rep = accuracy_report(kernel, ps.positions, ps.strengths, res, sample=200, seed=seed)
        log.add(
            backend=name,
            n_coeffs=expansion.n_coeffs,
            potential_rel_err=rep["potential_rel_err"],
            wall_s=wall,
        )
    return log


def gpu_partition_strategies(*, n: int = 30000, S: int = 128, n_gpus: int = 4, seed: int = 0) -> EventLog:
    """Interaction-count partitioning (paper) vs a naive equal-node split."""
    ps = plummer(n, seed=seed)
    tree = build_adaptive(ps.positions, S)
    lists = build_interaction_lists(tree)
    items = near_field_work_items(lists)
    model = GPUKernelModel(system_a().gpus[0])
    log = EventLog()

    def naive_split(items: list[NearFieldWorkItem], k: int):
        size = (len(items) + k - 1) // k
        return [items[i * size : (i + 1) * size] for i in range(k)]

    for label, splitter in (("interaction_count", partition_targets), ("equal_nodes", naive_split)):
        parts = splitter(items, n_gpus)
        times = [model.time_items(p).kernel_time for p in parts]
        log.add(
            strategy=label,
            kernel_time=max(times),
            imbalance=max(times) / (sum(times) / len(times)),
        )
    return log


def barnes_hut_vs_fmm(*, n: int = 3000, seed: int = 0) -> EventLog:
    """§I's positioning claim: the FMM offers bounded precision more
    readily than Barnes-Hut.

    Sweeps Barnes-Hut over theta and the FMM over expansion order on the
    same Plummer cloud and reports (potential error, work) pairs, where
    work is body-level interaction counts for BH and the P2P+M2L-dominated
    FLOP estimate for the FMM.  At matched tight accuracy the FMM needs
    less work per digit (its error is also uniform, not
    worst-case-unbounded).
    """
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    tree = build_adaptive(ps.positions, S=16)
    exact = direct_evaluate(
        kernel, ps.positions, ps.positions, ps.strengths, exclude_self=True
    )[:, 0]
    norm = float(np.linalg.norm(exact))
    log = EventLog()
    for theta in (0.9, 0.6, 0.4, 0.25):
        res = BarnesHut(kernel, theta=theta).solve(tree, ps.strengths)
        err = float(np.linalg.norm(res.potential - exact)) / norm
        log.add(
            method=f"barnes_hut(theta={theta})",
            potential_rel_err=err,
            work=float(res.interactions) * kernel.interaction_flops(),
        )
    for order in (2, 4, 6):
        solver = FMMSolver(kernel, order=order)
        res = solver.solve(tree, ps.strengths)
        err = float(np.linalg.norm(res.potential - exact)) / norm
        log.add(
            method=f"fmm(order={order})",
            potential_rel_err=err,
            work=_fmm_work(order, kernel, res.op_counts),
        )

    # the failure regime: a net-neutral charge system defeats the monopole
    # treecode entirely (cells cancel), while the FMM is unaffected
    rng = np.random.default_rng(seed + 1)
    q = rng.choice([-1.0, 1.0], n)
    log_neutral_rows(log, tree, q, LaplaceKernel(), ps)
    return log


def _fmm_work(order, kernel, op_counts) -> float:
    """FLOP estimate of one FMM solve: atomic units times op counts."""
    units = atomic_units(order, kernel)
    return sum(units[op] * op_counts.get(op, 0) for op in units)


def log_neutral_rows(log, tree, q, lap, ps):
    exact = direct_evaluate(lap, ps.positions, ps.positions, q, exclude_self=True)[:, 0]
    norm = float(np.linalg.norm(exact))
    bh = BarnesHut(lap, theta=0.4).solve(tree, q)
    log.add(
        method="barnes_hut(theta=0.4, neutral charges)",
        potential_rel_err=float(np.linalg.norm(bh.potential - exact)) / norm,
        work=float(bh.interactions) * lap.interaction_flops(),
    )
    res = FMMSolver(lap, order=4).solve(tree, q)
    log.add(
        method="fmm(order=4, neutral charges)",
        potential_rel_err=float(np.linalg.norm(res.potential - exact)) / norm,
        work=_fmm_work(4, lap, res.op_counts),
    )


def endpoint_offload(*, n: int = 20000, order: int = 8, seed: int = 0) -> EventLog:
    """§VIII-E's proposed extension: move P2M/L2P to the GPUs.

    The per-body P2M/L2P work is the CPU floor that caps the underpowered
    4-core configurations in Fig. 7; offloading it should lift exactly
    those configurations.  Reports the best-over-S compute time with and
    without the offload for the CPU-starved (4C+4G) and balanced (10C+2G)
    configurations.
    """
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    log = EventLog()
    for n_cores, n_gpus in ((4, 4), (10, 2)):
        for offload in (False, True):
            machine = system_a().with_resources(n_cores=n_cores, n_gpus=n_gpus)
            ex = HeterogeneousExecutor(
                machine, order=order, kernel=kernel, offload_endpoints=offload
            )
            S, timing, _ = optimal_s(ps.positions, ex, geometric_s_values(16, 2048, 12))
            log.add(
                config=f"{n_cores}C_{n_gpus}G",
                offload_endpoints=offload,
                best_S=S,
                best_compute_time=timing.compute_time,
            )
    return log


def coefficient_prediction_quality(*, n: int = 20000, order: int = 4, seed: int = 0) -> EventLog:
    """§IV-D validation: predict unseen-S compute times from coefficients
    observed at one S, compare against the executor's modeled times."""
    ps = plummer(n, seed=seed)
    executor = hetero_executor(order=order)
    coeffs = ObservedCoefficients()
    # observe at a mid-range S
    tree = build_adaptive(ps.positions, 128)
    timing = executor.time_step(tree)
    coeffs.update_from_registry(timing.cpu_registry, timing.gpu_p2p_coefficient)
    log = EventLog()
    for S in geometric_s_values(32, 1024, 8):
        tree = build_adaptive(ps.positions, S)
        lists = build_interaction_lists(tree)
        actual = executor.time_step(tree, lists)
        pred = predict_times(lists.op_counts(), coeffs)
        log.add(
            S=S,
            predicted_cpu=pred.cpu_time,
            actual_cpu=actual.cpu_time,
            predicted_gpu=pred.gpu_time,
            actual_gpu=actual.gpu_time,
            cpu_rel_err=abs(pred.cpu_time - actual.cpu_time) / actual.cpu_time,
            gpu_rel_err=abs(pred.gpu_time - actual.gpu_time) / actual.gpu_time
            if actual.gpu_time
            else 0.0,
        )
    return log
