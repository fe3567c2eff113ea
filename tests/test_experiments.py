"""Smoke + shape tests for the experiment harnesses (tiny scales).

The full-scale claims are asserted in the benchmark suite; here we verify
that every harness runs, returns the documented columns, and shows the
right qualitative shape at small N.
"""

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig3_adaptive_cost,
    fig4_uniform_gap,
    fig6_cpu_scaling,
    fig7_hetero_speedup,
    fig8_fig9_table2_strategies,
    fig10_finegrained,
    table1_gpu_scaling,
)


class TestFig3:
    def test_columns_and_monotone_cpu(self):
        log = fig3_adaptive_cost.run(n=4000, s_values=[32, 64, 128, 256, 512])
        assert len(log) == 5
        cpu = log.column("cpu_time")
        # far-field (CPU) cost falls as S grows
        assert cpu[0] > cpu[-1]

    def test_gpu_efficiency_rises_with_s(self):
        log = fig3_adaptive_cost.run(n=4000, s_values=[16, 512])
        eff = log.column("gpu_efficiency")
        assert eff[1] > eff[0]


class TestFig4:
    def test_regimes_exist(self):
        log = fig4_uniform_gap.run(n=4000, s_values=[16, 24, 32, 128, 192, 256, 1024, 1536])
        regimes = fig4_uniform_gap.regimes(log)
        assert len(regimes) >= 2
        # within one depth, compute time is constant (the plateaus)
        by_depth = {}
        for rec in log:
            by_depth.setdefault(rec["depth"], set()).add(round(rec["compute_time"], 12))
        for times in by_depth.values():
            assert len(times) == 1


class TestFig6:
    def test_speedup_monotone_then_saturating(self):
        log = fig6_cpu_scaling.run(n=6000, S=48, core_counts=(1, 2, 4, 8, 16, 32))
        sp = log.column("speedup")
        assert sp[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(sp, sp[1:]))
        # far from ideal at 32 (saturation), near-ideal at 4
        assert sp[2] > 3.5
        assert sp[-1] < 32


class TestTable1:
    def test_gpu_scaling_near_linear(self):
        log = table1_gpu_scaling.run(n=6000, S=128)
        sp = log.column("speedup")
        assert sp[0] == 1.0
        assert 1.5 < sp[1] <= 2.05
        assert 3.0 < sp[3] <= 4.05


class TestFig7:
    def test_orderings(self):
        log = fig7_hetero_speedup.run(n=6000, s_values=[32, 64, 128, 256, 512, 1024])
        best = fig7_hetero_speedup.best_speedups(log)
        # more resources never hurt
        assert best["10C_4G"] >= best["10C_2G"] >= best["10C_1G"]
        assert best["10C_4G"] >= best["4C_4G"]
        # §VIII-E: the CPU-starved config loses to the balanced one
        assert best["10C_2G"] > best["4C_4G"] * 0.95


class TestStrategies:
    def test_full_beats_static(self):
        logs = fig8_fig9_table2_strategies.run(n=600, steps=60)
        table = fig8_fig9_table2_strategies.table2(logs)
        rows = {r["strategy"]: r for r in table}
        assert rows["full"]["relative_cost_per_step"] == pytest.approx(1.0)
        assert rows["static"]["relative_cost_per_step"] >= 1.0
        # LB overhead stays small (paper: 1.88%)
        assert rows["full"]["lb_pct_of_compute"] < 20.0

    def test_series_lengths(self):
        logs = fig8_fig9_table2_strategies.run(n=400, steps=20, strategies=("static",))
        assert len(logs["static"]) == 20
        assert "S" in logs["static"].keys()


class TestFig10:
    def test_runs_and_ratio_defined(self):
        logs = fig10_finegrained.run(n=3000, steps=25)
        series = fig10_finegrained.ratio_series(logs)
        assert len(series) == 25
        assert all(r > 0 for r in series)

    def test_steady_state_advantage_nonnegative(self):
        logs = fig10_finegrained.run(n=3000, steps=30)
        adv = fig10_finegrained.steady_state_advantage(logs, skip=15)
        assert adv > 0.9  # FGO never catastrophically worse

    def test_lists_built_once_per_tree_shape(self, monkeypatch):
        """Steps price through the executor's list cache: a refit-only step
        reuses its lists, so the run builds lists exactly once per tree
        shape it prices or asks a cache for (a fresh tree, or surgery on
        the current one)."""
        from repro.machine.executor import HeterogeneousExecutor
        from repro.tree.cache import ListCache
        from repro.tree.lists import InteractionLists

        builds, shapes, trees = [0], set(), []
        init = InteractionLists.__init__
        time_step, get = HeterogeneousExecutor.time_step, ListCache.get

        def shape(tree):
            trees.append(tree)  # keeps every id() unique for the run
            shapes.add((id(tree), tree.structure_generation))

        def counted_init(self, *args, **kwargs):
            builds[0] += 1
            init(self, *args, **kwargs)

        def recorded_step(self, tree, *args, **kwargs):
            shape(tree)
            return time_step(self, tree, *args, **kwargs)

        def recorded_get(self, tree, **kwargs):
            shape(tree)
            return get(self, tree, **kwargs)

        monkeypatch.setattr(InteractionLists, "__init__", counted_init)
        monkeypatch.setattr(HeterogeneousExecutor, "time_step", recorded_step)
        monkeypatch.setattr(ListCache, "get", recorded_get)
        fig10_finegrained.run(n=2000, steps=40)
        assert builds[0] == len(shapes)


class TestAblations:
    def test_adaptive_beats_uniform_on_plummer(self):
        log = ablations.adaptive_vs_uniform(n=5000)
        rows = {r["decomposition"]: r for r in log}
        assert rows["adaptive"]["best_compute_time"] <= rows["uniform"]["best_compute_time"]

    def test_expansion_backends_agree(self):
        log = ablations.expansion_backends(n=1000, order=4, S=40)
        errs = [r["potential_rel_err"] for r in log]
        assert all(e < 1e-3 for e in errs)

    def test_partitioner_balances_interactions(self):
        # the paper's claim is that the greedy interaction-count walk keeps
        # per-GPU loads near-equal ("this simple division works well")
        log = ablations.gpu_partition_strategies(n=6000, S=96)
        rows = {r["strategy"]: r for r in log}
        assert rows["interaction_count"]["imbalance"] < 1.25

    def test_prediction_quality(self):
        log = ablations.coefficient_prediction_quality(n=6000)
        # predictions from one observed S transfer across the sweep within ~50%
        assert np.median(log.column("cpu_rel_err")) < 0.5
