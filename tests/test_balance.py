"""Tests for the load balancer: FGO, the state machine, and the §VII-B gates."""

import numpy as np
import pytest

from repro.balance import (
    BalancerConfig,
    BalancerState,
    DynamicLoadBalancer,
    fine_grained_optimize,
)
from repro.balance import controller, finegrained
from repro.costmodel import ObservedCoefficients
from repro.distributions import plummer
from repro.kernels import GravityKernel
from repro.machine import HeterogeneousExecutor, system_a
from repro.tree import build_adaptive, build_interaction_lists
from repro.util.timing import TimerRegistry


def make_executor(n_cores=10, n_gpus=4):
    return HeterogeneousExecutor(
        system_a().with_resources(n_cores=n_cores, n_gpus=n_gpus),
        order=4,
        kernel=GravityKernel(),
    )


def observe(executor, tree):
    """One step's observation, returning (timing, coefficients)."""
    timing = executor.time_step(tree)
    coeffs = ObservedCoefficients()
    coeffs.update_from_registry(timing.cpu_registry, timing.gpu_p2p_coefficient)
    return timing, coeffs


class TestConfig:
    def test_defaults_match_paper(self):
        """§VII-B: a 0.15 gap gate, 5% degradation, 10% incremental steps,
        a search of fewer than 15 steps."""
        assert BalancerConfig().gap_threshold_frac == 0.15
        assert controller.DEGRADATION_TOLERANCE == 0.05
        assert controller.INCREMENTAL_STEP == 0.10
        assert controller.SEARCH_MAX_STEPS == 15
        assert (controller.WATCHDOG_WINDOW, controller.WATCHDOG_FLIPS) == (6, 3)
        assert (finegrained.FGO_BATCH_FRAC, finegrained.FGO_MAX_ROUNDS) == (0.02, 12)

    def test_gap_gate_fractional(self):
        cfg = BalancerConfig(gap_threshold_frac=0.1)
        assert cfg.gap_gate(2.0) == pytest.approx(0.2)
        assert BalancerConfig().gap_gate(2.0) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BalancerConfig(s_min=0)
        with pytest.raises(ValueError):
            BalancerConfig(s_min=64, s_max=32)

    @pytest.mark.parametrize("frac", [float("nan"), float("inf"), -1.0, 0.0])
    def test_gap_threshold_frac_must_be_positive_and_finite(self, frac):
        with pytest.raises(ValueError, match="gap_threshold_frac"):
            BalancerConfig(gap_threshold_frac=frac)


class TestFineGrained:
    def test_improves_or_keeps_predicted_time(self):
        ps = plummer(3000, seed=0)
        executor = make_executor()
        tree = build_adaptive(ps.positions, S=64)
        _, coeffs = observe(executor, tree)
        report = fine_grained_optimize(tree, coeffs, executor)
        assert report.final.compute_time <= report.initial.compute_time + 1e-15
        assert report.lb_time > 0
        assert report.predictions >= 1

    def test_collapses_when_cpu_bound(self):
        ps = plummer(3000, seed=0)
        executor = make_executor(n_cores=1, n_gpus=4)  # weak CPU
        tree = build_adaptive(ps.positions, S=24)  # deep tree: CPU heavy
        _, coeffs = observe(executor, tree)
        report = fine_grained_optimize(tree, coeffs, executor)
        assert report.pushdowns == 0
        # with such an imbalance the optimizer must find collapses
        assert report.collapses > 0

    def test_pushes_down_when_gpu_bound(self):
        ps = plummer(3000, seed=0)
        executor = make_executor(n_cores=12, n_gpus=1)
        tree = build_adaptive(ps.positions, S=1024)  # shallow: GPU heavy
        _, coeffs = observe(executor, tree)
        report = fine_grained_optimize(tree, coeffs, executor)
        assert report.collapses == 0
        assert report.pushdowns > 0

    def test_reverts_bad_round(self):
        # with a tree already optimal for the coefficients, FGO must not
        # leave it worse: final prediction <= initial
        ps = plummer(2000, seed=1)
        executor = make_executor()
        tree = build_adaptive(ps.positions, S=200)
        _, coeffs = observe(executor, tree)
        before_leaves = len(tree.leaves())
        report = fine_grained_optimize(tree, coeffs, executor)
        if not report.changed:
            assert len(tree.leaves()) == before_leaves


class TestSearchState:
    def test_starts_in_search(self):
        lb = DynamicLoadBalancer(make_executor())
        assert lb.state is BalancerState.SEARCH

    def test_search_moves_s_toward_balance(self):
        ps = plummer(3000, seed=0)
        executor = make_executor()
        lb = DynamicLoadBalancer(
            executor, config=BalancerConfig(gap_threshold_frac=0.10)
        )
        tree = build_adaptive(ps.positions, lb.S)
        timing = executor.time_step(tree)
        s_before = lb.S
        out = lb.end_of_step(tree, timing)
        if timing.cpu_time > timing.gpu_time:
            assert lb.S >= s_before  # needs more GPU work
        else:
            assert lb.S <= s_before

    def test_search_terminates(self):
        ps = plummer(3000, seed=0)
        executor = make_executor()
        cfg = BalancerConfig(gap_threshold_frac=0.15)
        lb = DynamicLoadBalancer(executor, config=cfg)
        for _ in range(20):
            tree = build_adaptive(ps.positions, lb.S)
            out = lb.end_of_step(tree, executor.time_step(tree))
            if lb.state is not BalancerState.SEARCH:
                break
        assert lb.state is not BalancerState.SEARCH

    def test_static_mode_freezes_after_search(self):
        ps = plummer(3000, seed=0)
        executor = make_executor()
        lb = DynamicLoadBalancer(
            executor, config=BalancerConfig(gap_threshold_frac=0.15), mode="static"
        )
        for _ in range(20):
            tree = build_adaptive(ps.positions, lb.S)
            lb.end_of_step(tree, executor.time_step(tree))
            if lb.state is not BalancerState.SEARCH:
                break
        assert lb.state is BalancerState.OBSERVATION
        s_frozen = lb.S
        # feed a degraded timing: static must do nothing
        tree = build_adaptive(ps.positions, lb.S)
        timing = executor.time_step(tree)
        out = lb.end_of_step(tree, timing)
        assert out.lb_time == 0.0
        assert out.rebuild_S is None
        assert lb.S == s_frozen


class TestObservationState:
    def _balancer_in_observation(self, best_time=1.0, mode="full"):
        executor = make_executor()
        lb = DynamicLoadBalancer(executor, mode=mode)
        lb.state = BalancerState.OBSERVATION
        lb.best_time = best_time
        return lb, executor

    def _timing(self, executor, tree, scale):
        timing = executor.time_step(tree)
        timing.cpu_time *= scale / timing.compute_time
        timing.gpu_time *= scale / max(timing.gpu_time, 1e-30) * 0.5
        return timing

    def test_within_tolerance_does_nothing(self):
        ps = plummer(2000, seed=0)
        lb, executor = self._balancer_in_observation()
        tree = build_adaptive(ps.positions, 64)
        timing = executor.time_step(tree)
        lb.best_time = timing.compute_time  # exactly at best
        out = lb.end_of_step(tree, timing)
        assert out.lb_time == 0.0
        assert out.actions == []

    def test_degradation_triggers_enforce(self):
        ps = plummer(2000, seed=0)
        lb, executor = self._balancer_in_observation()
        tree = build_adaptive(ps.positions, 64)
        timing = executor.time_step(tree)
        lb.coeffs.update_from_registry(timing.cpu_registry, timing.gpu_p2p_coefficient)
        lb.best_time = timing.compute_time / 2.0  # current looks 2x degraded
        lb.S = 32  # differs from the built tree: enforce will operate
        out = lb.end_of_step(tree, timing)
        assert any(a.startswith("enforce_s") for a in out.actions)
        assert out.lb_time > 0

    def test_enforce_mode_records_new_best_next_step(self):
        ps = plummer(2000, seed=0)
        lb, executor = self._balancer_in_observation(mode="enforce")
        tree = build_adaptive(ps.positions, 64)
        timing = executor.time_step(tree)
        lb.best_time = timing.compute_time / 2.0
        lb.end_of_step(tree, timing)
        # the step after an enforcement becomes the new best
        t2 = executor.time_step(tree)
        lb.end_of_step(tree, t2)
        assert lb.best_time == pytest.approx(t2.compute_time)


class TestIncrementalState:
    def test_steps_s_while_dominance_unchanged(self):
        ps = plummer(3000, seed=0)
        executor = make_executor(n_cores=4, n_gpus=4)
        lb = DynamicLoadBalancer(executor, config=BalancerConfig(gap_threshold_frac=0.15))
        lb.state = BalancerState.INCREMENTAL
        lb.S = 32
        tree = build_adaptive(ps.positions, 32)  # deep: CPU dominant
        timing = executor.time_step(tree)
        assert timing.dominant == "cpu"
        out = lb.end_of_step(tree, timing)
        assert lb.S > 32
        assert out.rebuild_S == lb.S

    def test_transition_to_observation_on_flip(self):
        ps = plummer(3000, seed=0)
        executor = make_executor()
        lb = DynamicLoadBalancer(executor, config=BalancerConfig(gap_threshold_frac=0.5))
        lb.state = BalancerState.INCREMENTAL
        lb._inc_entry_dominant = "cpu"
        tree = build_adaptive(ps.positions, 2048)  # shallow: GPU dominant
        timing = executor.time_step(tree)
        assert timing.dominant == "gpu"
        lb.end_of_step(tree, timing)
        assert lb.state is BalancerState.OBSERVATION
        assert lb.best_time == pytest.approx(timing.compute_time)


class TestModes:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            DynamicLoadBalancer(make_executor(), mode="bogus")
