"""Tests for machine specs and the heterogeneous executor."""

import numpy as np
import pytest

from repro.distributions import plummer
from repro.kernels import GravityKernel
from repro.machine import HeterogeneousExecutor, single_core, system_a, system_b
from repro.tree import build_adaptive


@pytest.fixture(scope="module")
def tree():
    ps = plummer(3000, seed=0)
    return build_adaptive(ps.positions, S=64)


class TestSpecs:
    def test_system_a_shape(self):
        m = system_a()
        assert m.cpu.n_cores == 12
        assert m.n_gpus == 4

    def test_system_b_no_gpus(self):
        m = system_b()
        assert m.cpu.n_cores == 32
        assert m.n_gpus == 0

    def test_with_resources(self):
        m = system_a().with_resources(n_cores=10, n_gpus=2)
        assert m.cpu.n_cores == 10
        assert m.n_gpus == 2

    def test_with_resources_validation(self):
        with pytest.raises(ValueError):
            system_a().with_resources(n_cores=100)
        with pytest.raises(ValueError):
            system_a().with_resources(n_gpus=9)

    def test_single_core(self):
        m = single_core()
        assert m.cpu.n_cores == 1 and m.n_gpus == 0

    def test_core_rate_grows_with_sockets(self):
        cpu = system_b().cpu
        assert cpu.core_rate(32) > cpu.core_rate(8) == cpu.core_rate(1)


class TestExecutor:
    def test_step_timing_fields(self, tree):
        ex = HeterogeneousExecutor(
            system_a().with_resources(n_cores=10, n_gpus=4), order=4, kernel=GravityKernel()
        )
        st = ex.time_step(tree)
        assert st.cpu_time > 0
        assert st.gpu_time > 0
        assert st.compute_time == max(st.cpu_time, st.gpu_time)
        assert st.dominant in ("cpu", "gpu")
        assert len(st.per_gpu) == 4
        assert 0 < st.gpu_efficiency <= 1.0
        assert st.gpu_p2p_coefficient > 0

    def test_gpu_coefficient_definition(self, tree):
        ex = HeterogeneousExecutor(system_a(), order=4, kernel=GravityKernel())
        st = ex.time_step(tree)
        total_inter = sum(t.interactions for t in st.per_gpu)
        assert st.gpu_p2p_coefficient == pytest.approx(st.gpu_time / total_inter)

    def test_cpu_only_includes_near_field(self, tree):
        ex_gpu = HeterogeneousExecutor(
            system_a().with_resources(n_gpus=4), order=4, kernel=GravityKernel()
        )
        ex_cpu = HeterogeneousExecutor(system_b(), order=4, kernel=GravityKernel())
        st_gpu = ex_gpu.time_step(tree)
        st_cpu = ex_cpu.time_step(tree)
        assert st_cpu.gpu_time == 0.0
        assert "P2P" in st_cpu.cpu_registry.timers
        assert "P2P" not in st_gpu.cpu_registry.timers

    def test_coefficients_consistent_with_times(self, tree):
        ex = HeterogeneousExecutor(system_a(), order=4, kernel=GravityKernel())
        st = ex.time_step(tree)
        # attribution uses busy core-seconds (§IV-D per-thread timers):
        # the sum is at most the wall time and close to it when the tree
        # offers plenty of parallel slack
        total = sum(t.total_time for t in st.cpu_registry.timers.values())
        assert total <= st.cpu_time * (1 + 1e-9)
        assert total > 0.5 * st.cpu_time

    def test_deterministic_without_noise(self, tree):
        ex = HeterogeneousExecutor(system_a(), order=4, kernel=GravityKernel())
        a = ex.time_step(tree)
        b = ex.time_step(tree)
        assert a.cpu_time == b.cpu_time and a.gpu_time == b.gpu_time

    def test_noise_varies_times(self, tree):
        import dataclasses

        m = dataclasses.replace(system_a(), timing_noise=0.05)
        ex = HeterogeneousExecutor(m, order=4, kernel=GravityKernel(), seed=1)
        a = ex.time_step(tree)
        b = ex.time_step(tree)
        assert a.cpu_time != b.cpu_time

    def test_more_cores_faster_cpu(self, tree):
        t4 = HeterogeneousExecutor(
            system_a().with_resources(n_cores=4), order=4, kernel=GravityKernel()
        ).time_step(tree)
        t12 = HeterogeneousExecutor(
            system_a().with_resources(n_cores=12), order=4, kernel=GravityKernel()
        ).time_step(tree)
        assert t12.cpu_time < t4.cpu_time

    def test_more_gpus_faster_gpu(self, tree):
        t1 = HeterogeneousExecutor(
            system_a().with_resources(n_gpus=1), order=4, kernel=GravityKernel()
        ).time_step(tree)
        t4 = HeterogeneousExecutor(
            system_a().with_resources(n_gpus=4), order=4, kernel=GravityKernel()
        ).time_step(tree)
        assert t4.gpu_time < t1.gpu_time

    def test_maintenance_costs_positive(self, tree):
        ex = HeterogeneousExecutor(system_a(), order=4, kernel=GravityKernel())
        assert ex.time_tree_build(tree) > 0
        assert ex.time_enforce_s(tree, {"collapses": 3, "pushdowns": 2}) > 0
        assert ex.time_prediction(tree) > 0
        assert ex.time_surgery(5) > 0
        assert ex.time_surgery(0) == 0.0
