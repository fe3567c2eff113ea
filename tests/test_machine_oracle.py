"""The modeled machine built from arrays is bit for bit the per-node one.

``tests/oracles/machine.py`` keeps the per-node task graph, the dict-driven
discrete-event schedule and the per-item GPU kernel model; every figure
the array-built machine produces must equal (``==``) the oracle's, on the
seven clouds, on System A (GPUs, timing noise, endpoints on the CPU or
offloaded) and GPU-less System B, before and after fine-grained surgery —
and after a refit that keeps the shape, where the memoized skeleton meets
new counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.balance.finegrained import _collapse_candidates, _pushdown_candidates
from repro.gpu import near_field_work_items, partition_targets
from repro.gpu.model import GPUKernelModel
from repro.kernels import GravityKernel
from repro.machine import HeterogeneousExecutor, system_a, system_b
from repro.runtime import build_fmm_task_graph, simulate_schedule
from repro.tree import AdaptiveOctree, ListCache
from tests.clouds import CLOUDS
from tests.oracles import machine as oracle

MACHINES = {
    "A": lambda: system_a(timing_noise=0.05).with_resources(n_cores=10, n_gpus=4),
    "A-offload": lambda: system_a(timing_noise=0.05).with_resources(n_cores=10, n_gpus=4),
    "B": lambda: system_b(timing_noise=0.05),
}


def _registry(reg) -> dict:
    return {op: (t.total_time, t.count) for op, t in reg.timers.items()}


def _assert_same_step(new, old) -> None:
    assert new.cpu_time == old.cpu_time
    assert new.gpu_time == old.gpu_time
    assert new.per_gpu == old.per_gpu
    assert new.op_counts == old.op_counts
    assert new.op_flops == old.op_flops
    assert _registry(new.cpu_registry) == _registry(old.cpu_registry)
    assert new.gpu_p2p_coefficient == old.gpu_p2p_coefficient
    assert new.gpu_efficiency == old.gpu_efficiency


def _assert_same_schedules(tree, lists, machine, order, kernel) -> None:
    for near in (False, True):
        for endpoints in (True, False):
            args = dict(order=order, kernel=kernel, include_near_field=near,
                        include_endpoints=endpoints)
            graph = build_fmm_task_graph(tree, lists, **args)
            ref = oracle.build_fmm_task_graph(tree, lists, **args)
            assert [(t.work, t.deps, t.label, t.bytes) for t in graph.tasks] == [
                (t.work, t.deps, t.label, t.bytes) for t in ref.tasks
            ]
            for workers in (1, 3, machine.cpu.n_cores):
                got = simulate_schedule(graph, machine.cpu, workers, record_timeline=True)
                want = oracle.simulate_schedule(ref, machine.cpu, workers, record_timeline=True)
                assert {name: getattr(got, name) for name in vars(want)} == vars(want)


def _assert_same_gpu_work(lists, machine) -> None:
    items = near_field_work_items(lists)
    assert items == oracle.near_field_work_items(lists)
    for n_gpus in (1, 3, 4):
        parts = partition_targets(items, n_gpus)
        assert parts == oracle.partition_targets(items, n_gpus)
        if machine.n_gpus:
            spec = machine.gpus[0]
            for part in parts:
                assert GPUKernelModel(spec).time_items(part) == oracle.time_items(spec, part)


def _surgery(tree, lists) -> None:
    """One fine-grained round each way: collapse the lightest all-leaf
    parents, push down the hottest tile of leaves."""
    for nid in _collapse_candidates(tree, 2):
        tree.collapse(nid)
    for nid in _pushdown_candidates(tree, lists, 3):
        if tree.nodes[nid].is_leaf and tree.nodes[nid].level < tree.max_level:
            tree.pushdown(nid)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_time_step_matches_per_node_oracle(cloud, machine_name):
    points, S = CLOUDS[cloud](3)
    machine = MACHINES[machine_name]()
    kernel = GravityKernel()
    offload = machine_name == "A-offload"
    cache = ListCache()
    ex_new, ex_ref = (
        HeterogeneousExecutor(machine, order=3, kernel=kernel, seed=11,
                              offload_endpoints=offload, list_cache=cache)
        for _ in range(2)
    )
    tree = AdaptiveOctree(points, S)
    rng = np.random.default_rng(5)
    lo, hi = tree.root_box.low, tree.root_box.low + tree.root_box.size
    for stage in ("built", "refit", "surgery"):
        if stage == "refit":
            tree.points = np.clip(points + rng.normal(scale=1e-3, size=points.shape), lo, hi)
            tree.refit()
        elif stage == "surgery":
            _surgery(tree, cache.get(tree))
        lists = cache.get(tree)
        _assert_same_step(ex_new.time_step(tree, lists), oracle.time_step(ex_ref, tree, lists))
        _assert_same_schedules(tree, lists, machine, 3, kernel)
        _assert_same_gpu_work(lists, machine)
