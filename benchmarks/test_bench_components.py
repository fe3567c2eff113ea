"""Component microbenchmarks: the hot paths of the library."""

import numpy as np
import pytest

from repro.distributions import plummer
from repro.fmm import FMMSolver
from repro.geometry.morton import morton_keys
from repro.kernels import GravityKernel, LaplaceKernel, RegularizedStokesletKernel
from repro.machine import HeterogeneousExecutor, system_a
from repro.runtime import build_fmm_task_graph, simulate_schedule
from repro.tree import build_adaptive, build_interaction_lists

N = 20000


@pytest.fixture(scope="module")
def cloud():
    return plummer(N, seed=0)


@pytest.fixture(scope="module")
def tree(cloud):
    return build_adaptive(cloud.positions, S=64)


@pytest.fixture(scope="module")
def lists(tree):
    return build_interaction_lists(tree)


def test_bench_morton_keys(benchmark, cloud):
    low = cloud.positions.min(axis=0)
    size = float((cloud.positions.max(axis=0) - low).max()) * 1.01
    benchmark(morton_keys, cloud.positions, low, size)


def test_bench_tree_build(benchmark, cloud):
    benchmark(build_adaptive, cloud.positions, 64)


def test_bench_interaction_lists(benchmark, tree):
    benchmark(build_interaction_lists, tree)


def test_bench_p2p_block(benchmark):
    rng = np.random.default_rng(1)
    t = rng.uniform(-1, 1, (256, 3))
    s = rng.uniform(-1, 1, (2048, 3))
    q = rng.uniform(0.5, 1.5, 2048)
    k = LaplaceKernel()
    benchmark(k.gradient, t, s, q)


def test_bench_stokeslet_block(benchmark):
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, (256, 3))
    s = rng.uniform(-1, 1, (1024, 3))
    f = rng.uniform(-1, 1, (1024, 3))
    k = RegularizedStokesletKernel(epsilon=1e-2)
    benchmark(k.evaluate, t, s, f)


def test_bench_full_fmm_solve(benchmark, cloud):
    solver = FMMSolver(GravityKernel(G=1.0), order=4)
    tree = build_adaptive(cloud.positions[:5000], S=48)

    def solve():
        return solver.solve(tree, cloud.strengths[:5000], gradient=True)

    benchmark.pedantic(solve, rounds=2, iterations=1)


def test_bench_scheduler_simulation(benchmark, tree, lists):
    graph = build_fmm_task_graph(tree, lists, order=4, kernel=GravityKernel())
    cpu = system_a().cpu
    benchmark(simulate_schedule, graph, cpu, 12)


def test_bench_executor_time_step(benchmark, tree, lists):
    ex = HeterogeneousExecutor(
        system_a().with_resources(n_cores=10, n_gpus=4), order=4, kernel=GravityKernel()
    )
    benchmark(ex.time_step, tree, lists)
