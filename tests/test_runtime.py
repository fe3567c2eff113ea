"""Tests for the task DAG builder and the scheduler simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import plummer
from repro.kernels import LaplaceKernel
from repro.runtime import (
    CPUSpec,
    Task,
    TaskGraph,
    build_fmm_task_graph,
    build_treebuild_task_graph,
    simulate_schedule,
)
from repro.tree import build_adaptive, build_interaction_lists


def _chain(works):
    return TaskGraph([Task(id=i, work=w, deps=[i - 1] if i else []) for i, w in enumerate(works)])


def _independent(works):
    return TaskGraph([Task(id=i, work=w) for i, w in enumerate(works)])


SPEC = CPUSpec(
    n_cores=8,
    cores_per_socket=4,
    core_flops=1e9,
    task_overhead_s=0.0,
    mem_bandwidth=1e18,
    cache_bonus_per_socket=0.0,
)


class TestTaskGraph:
    def test_total_work(self):
        g = _independent([1.0, 2.0, 3.0])
        assert g.total_work == 6.0

    def test_critical_path_chain(self):
        g = _chain([1.0, 2.0, 3.0])
        assert g.critical_path() == 6.0

    def test_critical_path_diamond(self):
        tasks = [
            Task(id=0, work=1.0),
            Task(id=1, work=5.0, deps=[0]),
            Task(id=2, work=2.0, deps=[0]),
            Task(id=3, work=1.0, deps=[1, 2]),
        ]
        assert TaskGraph(tasks).critical_path() == 7.0

    def test_cycle_detection(self):
        tasks = [Task(id=0, work=1.0, deps=[1]), Task(id=1, work=1.0, deps=[0])]
        with pytest.raises(ValueError):
            TaskGraph(tasks).critical_path()


class TestScheduler:
    def test_serial_equals_total_work(self):
        g = _independent([1e9, 2e9, 3e9])
        res = simulate_schedule(g, SPEC, 1)
        assert res.makespan == pytest.approx(6.0)

    def test_perfect_parallelism(self):
        g = _independent([1e9] * 8)
        res = simulate_schedule(g, SPEC, 8)
        assert res.makespan == pytest.approx(1.0)
        assert res.utilization == pytest.approx(1.0)

    def test_chain_cannot_parallelize(self):
        g = _chain([1e9] * 4)
        res = simulate_schedule(g, SPEC, 8)
        assert res.makespan == pytest.approx(4.0)

    def test_empty_graph(self):
        res = simulate_schedule(TaskGraph([]), SPEC, 4)
        assert res.makespan == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            simulate_schedule(_independent([1.0]), SPEC, 0)

    def test_timeline_off_by_default(self):
        res = simulate_schedule(_independent([1e9] * 4), SPEC, 2)
        assert res.timeline is None

    def test_timeline_records_every_task(self):
        g = _chain([1e9, 2e9, 3e9])
        res = simulate_schedule(g, SPEC, 4, record_timeline=True)
        assert sorted(tid for tid, _, _, _ in res.timeline) == [0, 1, 2]
        for _, worker, start, end in res.timeline:
            assert 0 <= worker < 4
            assert 0.0 <= start <= end <= res.makespan + 1e-9
        # a chain serializes: intervals must not overlap
        ordered = sorted(res.timeline, key=lambda t: t[2])
        for (_, _, _, e0), (_, _, s1, _) in zip(ordered, ordered[1:]):
            assert s1 >= e0 - 1e-9

    def test_timeline_agrees_with_utilization(self):
        """sum(end - start) over the timeline IS the busy time the
        utilization property divides by — one source of truth."""
        g = _independent([1e9, 2e9, 3e9, 4e9])
        res = simulate_schedule(g, SPEC, 3, record_timeline=True)
        lane_busy = sum(end - start for _, _, start, end in res.timeline)
        assert lane_busy == pytest.approx(res.busy_time)
        assert res.utilization == pytest.approx(
            lane_busy / (res.makespan * res.n_workers)
        )

    def test_timeline_workers_never_double_booked(self):
        g = _independent([1e9] * 10)
        res = simulate_schedule(g, SPEC, 3, record_timeline=True)
        by_worker: dict[int, list[tuple[float, float]]] = {}
        for _, worker, start, end in res.timeline:
            by_worker.setdefault(worker, []).append((start, end))
        assert set(by_worker) <= set(range(3))
        for intervals in by_worker.values():
            intervals.sort()
            for (_, e0), (s1, _) in zip(intervals, intervals[1:]):
                assert s1 >= e0 - 1e-9

    def test_empty_graph_timeline(self):
        res = simulate_schedule(TaskGraph([]), SPEC, 2, record_timeline=True)
        assert res.timeline == []

    @given(
        st.lists(st.floats(1e6, 1e9), min_size=1, max_size=30),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, works, k):
        """Any schedule obeys max(T_inf, T_1/k) <= T_k <= T_1."""
        g = _independent(works)
        res = simulate_schedule(g, SPEC, k)
        t1 = g.total_work / SPEC.core_flops
        t_inf = max(works) / SPEC.core_flops
        assert res.makespan <= t1 * 1.001
        assert res.makespan >= max(t_inf, t1 / k) * 0.999

    def test_memory_roofline_slows(self):
        spec = CPUSpec(
            n_cores=8,
            cores_per_socket=8,
            core_flops=1e9,
            task_overhead_s=0.0,
            mem_bandwidth=2e9,  # only supports 2 cores at 1 B/flop
            cache_bonus_per_socket=0.0,
        )
        g = TaskGraph([Task(id=i, work=1e9, bytes=1e9) for i in range(8)])
        res = simulate_schedule(g, spec, 8)
        # bandwidth-bound: 8 GB over 2 GB/s = 4 s (vs 1 s compute-bound)
        assert res.makespan == pytest.approx(4.0, rel=0.01)

    def test_cache_bonus_superlinear(self):
        spec = CPUSpec(
            n_cores=8,
            cores_per_socket=4,
            core_flops=1e9,
            task_overhead_s=0.0,
            mem_bandwidth=1e18,
            cache_bonus_per_socket=0.10,
        )
        g = _independent([1e9] * 8)
        res = simulate_schedule(g, spec, 8)  # 2 sockets -> +10% rate
        assert res.makespan == pytest.approx(1.0 / 1.1)

    def test_overhead_charged(self):
        spec = CPUSpec(
            n_cores=1,
            cores_per_socket=1,
            core_flops=1e9,
            task_overhead_s=1e-3,
            mem_bandwidth=1e18,
            cache_bonus_per_socket=0.0,
        )
        g = _independent([1e6] * 10)  # 1 ms each + 1 ms overhead each
        res = simulate_schedule(g, spec, 1)
        assert res.makespan == pytest.approx(0.02, rel=0.01)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CPUSpec(n_cores=0)
        with pytest.raises(ValueError):
            CPUSpec(core_flops=-1)


class TestFMMTaskGraph:
    @pytest.fixture(scope="class")
    def graph_setup(self):
        ps = plummer(1200, seed=0)
        tree = build_adaptive(ps.positions, S=30)
        lists = build_interaction_lists(tree)
        return tree, lists

    def test_one_up_one_down_per_node(self, graph_setup):
        tree, lists = graph_setup
        g = build_fmm_task_graph(tree, lists, order=3)
        assert len(g.tasks) == 2 * len(tree.effective_nodes())

    def test_acyclic_and_positive(self, graph_setup):
        tree, lists = graph_setup
        g = build_fmm_task_graph(tree, lists, order=3)
        assert g.critical_path() > 0
        assert all(t.work >= 0 for t in g.tasks)

    def test_near_field_flag_adds_work(self, graph_setup):
        tree, lists = graph_setup
        g_far = build_fmm_task_graph(tree, lists, order=3)
        g_all = build_fmm_task_graph(tree, lists, order=3, include_near_field=True)
        assert g_all.total_work > g_far.total_work

    def test_more_cores_never_slower(self, graph_setup):
        tree, lists = graph_setup
        g = build_fmm_task_graph(tree, lists, order=3, kernel=LaplaceKernel())
        times = [simulate_schedule(g, SPEC, k).makespan for k in (1, 2, 4, 8)]
        assert all(a >= b * 0.999 for a, b in zip(times, times[1:]))

    def test_treebuild_graph(self, graph_setup):
        tree, _ = graph_setup
        g = build_treebuild_task_graph(tree)
        assert len(g.tasks) == len(tree.effective_nodes())
        # root partitions all bodies: the heaviest task
        assert g.tasks[0].work == max(t.work for t in g.tasks)
