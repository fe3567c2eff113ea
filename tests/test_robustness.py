"""Robustness and failure-injection tests: noisy timings, degenerate
inputs, extreme distributions, CLI plumbing."""

import numpy as np
import pytest

from repro.balance import BalancerConfig
from repro.distributions import compact_plummer, exponential_disk, uniform_cube
from repro.fmm import FMMSolver
from repro.kernels import GravityKernel, LaplaceKernel
from repro.machine import HeterogeneousExecutor, system_a
from repro.sim import Simulation, SimulationConfig
from repro.tree import build_adaptive, build_interaction_lists


class TestNoisyTimings:
    def test_balancer_converges_under_noise(self):
        """With 5% multiplicative timing noise the full strategy must still
        settle (mostly observation state) and stay within a sane cost band."""
        import dataclasses

        ps = compact_plummer(800, seed=0, total_mass=1.0, velocity_scale=1.0)
        machine = dataclasses.replace(
            system_a().with_resources(n_cores=10, n_gpus=4), timing_noise=0.05
        )
        cfg = SimulationConfig(
            dt=1e-4,
            order=3,
            forces="direct",
            strategy="full",
            balancer=BalancerConfig(gap_threshold_frac=0.20, s_min=8, s_max=1024),
            seed=3,
        )
        sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3), machine, config=cfg)
        sim.run(60)
        states = sim.log.column("state")
        tail_states = states[30:]
        # the balancer is not allowed to thrash: most of the tail is steady
        frac_obs = sum(s == "observation" for s in tail_states) / len(tail_states)
        assert frac_obs > 0.5
        # per-step cost stays within a reasonable band of the median
        totals = np.array(sim.log.column("total_time")[30:])
        assert totals.max() < 10 * np.median(totals)

    def test_executor_noise_seeded_reproducible(self):
        import dataclasses

        ps = uniform_cube(800, seed=0)
        tree = build_adaptive(ps.positions, 64)
        machine = dataclasses.replace(system_a(), timing_noise=0.1)
        a = HeterogeneousExecutor(machine, order=3, kernel=GravityKernel(), seed=5).time_step(tree)
        b = HeterogeneousExecutor(machine, order=3, kernel=GravityKernel(), seed=5).time_step(tree)
        assert a.cpu_time == b.cpu_time


class TestDegenerateInputs:
    def test_fmm_two_bodies(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        tree = build_adaptive(pts, S=1)
        res = FMMSolver(LaplaceKernel(), order=3).solve(tree, np.ones(2), gradient=True)
        assert res.potential[0] == pytest.approx(1.0)
        assert res.gradient[0, 0] == pytest.approx(1.0)  # grad phi toward source

    def test_fmm_single_body(self):
        pts = np.array([[0.3, 0.2, 0.1]])
        tree = build_adaptive(pts, S=4)
        res = FMMSolver(LaplaceKernel(), order=3).solve(tree, np.ones(1))
        assert res.potential[0] == 0.0  # no other sources

    def test_collinear_bodies(self):
        pts = np.zeros((50, 3))
        pts[:, 0] = np.linspace(0, 1, 50)
        tree = build_adaptive(pts, S=5)
        res = FMMSolver(LaplaceKernel(), order=6).solve(tree, np.ones(50))
        from repro.fmm import accuracy_report

        # collinear bodies sit on cell corners: worst-case separation ratio,
        # so convergence is slower than for volumetric clouds
        rep = accuracy_report(LaplaceKernel(), pts, np.ones(50), res)
        assert rep["potential_rel_err"] < 1e-3

    def test_coincident_bodies_dont_crash(self):
        pts = np.vstack([np.zeros((10, 3)), np.ones((10, 3))])
        from repro.tree.octree import AdaptiveOctree

        tree = AdaptiveOctree(pts, S=3, max_level=5)
        res = FMMSolver(LaplaceKernel(), order=3).solve(tree, np.ones(20))
        assert np.isfinite(res.potential).all()

    def test_anisotropic_disk(self):
        ps = exponential_disk(1500, seed=0, thickness=0.005)
        tree = build_adaptive(ps.positions, S=25)
        res = FMMSolver(LaplaceKernel(), order=5).solve(tree, ps.strengths)
        from repro.fmm import accuracy_report

        rep = accuracy_report(LaplaceKernel(), ps.positions, ps.strengths, res, sample=150)
        assert rep["potential_rel_err"] < 1e-3

    def test_executor_on_single_leaf_tree(self):
        pts = np.random.default_rng(0).uniform(size=(10, 3))
        tree = build_adaptive(pts, S=100)  # one leaf
        ex = HeterogeneousExecutor(system_a(), order=3, kernel=GravityKernel())
        st = ex.time_step(tree)
        assert st.compute_time > 0
        assert st.op_counts["M2L"] == 0  # nothing to translate

    def test_lists_on_single_leaf(self):
        pts = np.random.default_rng(0).uniform(size=(5, 3))
        tree = build_adaptive(pts, S=100)
        lists = build_interaction_lists(tree)
        root = tree.leaves()[0]
        assert lists.near_sources[root] == [root]


class TestCLI:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "strategies" in out

    def test_run_small_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["table1", "--n", "3000", "--S", "64"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_unknown_command(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_kwargs(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig3", "positional"])
        with pytest.raises(SystemExit):
            main(["fig3", "--n"])
