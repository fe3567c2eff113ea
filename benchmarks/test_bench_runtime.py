"""Execution-engine benchmark: bitwise identity, and the measured ratio.

Runs the full far-field + near-field pipeline of a 50k-body Plummer step
through the dependency-driven thread-pool engine with 4+ workers beside
the serial path, asserts the two results are *bitwise identical* (thread
scheduling on an oversubscribed box is exactly where determinism bugs
would show, so this runs everywhere), and prints the serial/engine
wall-clock ratio.  BLAS threading is pinned to 1 by ``conftest.py``, so
the ratio is the engine's task-level parallelism, not a library pool.

There is **no speedup threshold**: since the fused P2P kernel (PR 13) a
near-field group is ~20 NumPy calls of ~10 us and pool threads trade the
GIL more than they overlap — ``benchmarks/step_budget`` measures
``engine.speedup`` 0.46x at 2 threads — so whether ``threads:N`` survives
at all is an open decision (ROADMAP item 3), not a gate an unchanged tree
could fail.  The usable CPU count is printed beside the ratio: on fewer
than 4 the workers are oversubscribed and the ratio says little.
"""

import gc
import os
import time

import numpy as np

from repro.distributions.generators import plummer
from repro.fmm.evaluator import FMMSolver
from repro.kernels import LaplaceKernel
from repro.runtime.engine import ExecutionEngine
from repro.tree import AdaptiveOctree, build_interaction_lists


def _best_time(fn, rounds):
    """Best-of-N wall time with the GC held off the timed region."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def _available_cpus():
    """CPUs this process may actually use — affinity-aware, so a container
    pinned to 2 cores of a 64-core host reports 2, not 64."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_bench_engine_step_speedup(benchmark):
    """4+-worker engine == serial bitwise on a 50k-body far+near solve;
    the speedup is printed, not gated."""
    n = 50_000
    avail = _available_cpus()
    n_workers = max(4, min(8, avail))
    pts = plummer(n, seed=7).positions
    tree = AdaptiveOctree(pts, S=32)
    lists = build_interaction_lists(tree)
    rng = np.random.default_rng(7)
    q = rng.uniform(-1, 1, n)
    kernel = LaplaceKernel(softening=1e-3)

    serial = FMMSolver(kernel, order=4)
    ref = serial.solve(tree, q, lists=lists)  # warms every shared cache
    serial_run = lambda: serial.solve(tree, q, lists=lists)  # noqa: E731

    with ExecutionEngine(n_workers=n_workers) as eng:
        par = FMMSolver(kernel, order=4, engine=eng)
        res = par.solve(tree, q, lists=lists)
        assert np.array_equal(res.potential, ref.potential), (
            "engine result drifted from serial bitwise"
        )
        par_run = lambda: par.solve(tree, q, lists=lists)  # noqa: E731

        serial_t = _best_time(serial_run, rounds=3)
        par_t = _best_time(par_run, rounds=3)
        benchmark.pedantic(par_run, rounds=2, iterations=1)
        eng_res = par.last_engine_result

    speedup = serial_t / par_t
    print()
    print(
        f"engine step, 50k plummer S=32 order=4: serial {serial_t * 1e3:.1f} ms, "
        f"{n_workers} workers {par_t * 1e3:.1f} ms, speedup {speedup:.2f}x, "
        f"{eng_res.n_tasks} tasks, utilization {eng_res.utilization:.0%} "
        f"({avail} usable CPUs)"
    )
