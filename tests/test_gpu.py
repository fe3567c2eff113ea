"""Tests for the GPU kernel model and the multi-GPU partitioner."""

import math

import pytest

from repro.distributions import plummer, uniform_cube
from repro.gpu import (
    GPUKernelModel,
    GPUSpec,
    NearFieldWorkItem,
    near_field_work_items,
    partition_targets,
)
from repro.tree import build_adaptive, build_interaction_lists


def item(nt, sources):
    return NearFieldWorkItem(target=0, n_targets=nt, source_counts=tuple(sources))


SPEC = GPUSpec(n_sms=4, warp_size=32, block_size=128, clock_hz=1e9, body_cycles=10.0, load_cycles=100.0, launch_overhead_s=0.0)


class TestWorkItem:
    def test_interactions_formula(self):
        it = item(10, [5, 7])
        assert it.n_sources == 12
        assert it.interactions == 120

    def test_work_items_from_lists(self):
        ps = uniform_cube(600, seed=0)
        tree = build_adaptive(ps.positions, S=40)
        lists = build_interaction_lists(tree)
        items = near_field_work_items(lists)
        # every nonempty leaf appears once, in Morton order
        assert len(items) == sum(1 for l in tree.leaves() if tree.nodes[l].count)
        total = sum(it.interactions for it in items)
        assert total == lists.total_near_interactions()


def _efficiency(timing):
    """Useful interactions per issued lane-step, the quantity behind
    ``StepTiming.gpu_efficiency`` (1.0 = no idle lanes)."""
    return timing.interactions / timing.issued_body_steps


class TestKernelModel:
    def test_block_count(self):
        model = GPUKernelModel(SPEC)
        cycles = model.block_cycles(item(300, [10]))
        assert len(cycles) == math.ceil(300 / SPEC.block_size)

    def test_partial_warp_inefficiency(self):
        model = GPUKernelModel(SPEC)
        # 33 targets need 2 warps; 32 targets need 1: more cycles for 33
        t32 = model.time_items([item(32, [100])])
        t33 = model.time_items([item(33, [100])])
        assert t33.kernel_time > t32.kernel_time
        assert _efficiency(t33) < _efficiency(t32)

    def test_kernel_time_scales_with_sources(self):
        model = GPUKernelModel(SPEC)
        t1 = model.time_items([item(64, [100])])
        t2 = model.time_items([item(64, [200])])
        assert t2.kernel_time > t1.kernel_time

    def test_empty_items(self):
        model = GPUKernelModel(SPEC)
        t = model.time_items([])
        assert t.kernel_time == SPEC.launch_overhead_s
        assert t.interactions == 0
        assert t.issued_body_steps == 0  # no lane issued: StepTiming reports 1.0

    def test_sm_parallelism(self):
        # 4 identical blocks on 4 SMs take the time of one block
        model = GPUKernelModel(SPEC)
        one = model.time_items([item(128, [64])])
        four = model.time_items([item(128, [64]) for _ in range(4)])
        assert four.kernel_time == pytest.approx(one.kernel_time)

    def test_full_block_efficiency_near_one(self):
        model = GPUKernelModel(SPEC)
        t = model.time_items([item(SPEC.block_size, [512])])
        assert _efficiency(t) == pytest.approx(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GPUSpec(block_size=100, warp_size=32)
        with pytest.raises(ValueError):
            GPUSpec(n_sms=0)


class TestPartitioner:
    def test_partition_preserves_items(self):
        items = [item(10, [10]) for _ in range(20)]
        parts = partition_targets(items, 4)
        assert sum(len(p) for p in parts) == 20

    def test_no_target_split(self):
        ps = plummer(2000, seed=1)
        tree = build_adaptive(ps.positions, S=40)
        lists = build_interaction_lists(tree)
        items = near_field_work_items(lists)
        parts = partition_targets(items, 3)
        seen = [it.target for p in parts for it in p]
        assert len(seen) == len(set(seen)) == len(items)

    def test_roughly_balanced(self):
        ps = plummer(4000, seed=2)
        tree = build_adaptive(ps.positions, S=60)
        lists = build_interaction_lists(tree)
        items = near_field_work_items(lists)
        parts = partition_targets(items, 4)
        loads = [sum(it.interactions for it in p) for p in parts]
        total = sum(loads)
        for load in loads:
            assert load <= total / 4 * 1.5  # greedy walk stays near equal

    def test_single_gpu(self):
        items = [item(5, [5])] * 3
        parts = partition_targets(items, 1)
        assert len(parts) == 1 and len(parts[0]) == 3

    def test_more_gpus_than_items(self):
        items = [item(5, [5])] * 2
        parts = partition_targets(items, 4)
        assert sum(len(p) for p in parts) == 2

    def test_empty(self):
        assert partition_targets([], 3) == [[], [], []]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_targets([], 0)
