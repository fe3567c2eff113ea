"""Tests for the distributed-memory extension (partition, LET, timing)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    DistributedExecutor,
    build_let,
    partition_by_morton_work,
)
from repro.distributions import plummer
from repro.experiments.common import default_kernel
from repro.machine import system_a
from repro.tree import build_adaptive, build_interaction_lists


@pytest.fixture(scope="module")
def setup():
    ps = plummer(4000, seed=0)
    tree = build_adaptive(ps.positions, S=64)
    lists = build_interaction_lists(tree)
    return tree, lists


class TestPartition:
    def test_every_leaf_assigned_once(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 4)
        all_leaves = [l for rl in part.rank_leaves for l in rl]
        assert sorted(all_leaves) == sorted(lists.near_sources)
        assert set(part.leaf_rank) == set(all_leaves)

    def test_bodies_partitioned(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 4)
        covered = np.concatenate([tree.bodies(l) for rl in part.rank_leaves for l in rl])
        assert sorted(covered.tolist()) == list(range(tree.n_bodies))

    def test_contiguous_morton_runs(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 4)
        # ranks own increasing Morton ranges: last leaf of rank r precedes
        # the first leaf of rank r+1 in sorted-body order
        for r in range(3):
            if part.rank_leaves[r] and part.rank_leaves[r + 1]:
                assert (
                    tree.nodes[part.rank_leaves[r][-1]].lo
                    < tree.nodes[part.rank_leaves[r + 1][0]].lo
                )

    def test_balanced_work(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 4)
        assert part.imbalance < 1.5

    def test_single_rank(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 1)
        assert part.imbalance == 1.0
        assert all(r == 0 for r in part.leaf_rank.values())

    def test_node_rank_owner_convention(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 4)
        # root is owned by the rank holding the very first leaf
        assert part.node_rank(0) == 0

    def test_validation(self, setup):
        tree, lists = setup
        with pytest.raises(ValueError):
            partition_by_morton_work(tree, lists, 0)


class TestLET:
    def test_let_names_every_remote_multipole_and_body(self):
        """Every cross-rank V sender / near source appears in the
        consumer's LET: the comm model charges for all of them."""
        tree = build_adaptive(plummer(1600, seed=31).positions, S=24)
        lists = build_interaction_lists(tree)
        part = partition_by_morton_work(tree, lists, 3, order=3)
        let = build_let(part, n_coeffs=20)

        for t, vs in lists.v_list.items():
            r = part.node_rank(t)
            for v in vs:
                ro = part.node_rank(v)
                if ro != r:
                    assert (ro, v) in let.remote_multipoles[r]
        for t, sources in lists.near_sources.items():
            r = part.node_rank(t)
            for s in sources:
                ro = part.node_rank(s)
                if ro != r:
                    assert (ro, s) in let.remote_bodies[r]

    def test_no_remote_data_on_single_rank(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 1)
        let = build_let(part, n_coeffs=35)
        assert let.recv_bytes(0, tree) == 0.0
        assert let.recv_messages(0) == 0

    def test_remote_sets_exclude_local(self, setup):
        tree, lists = setup
        part = partition_by_morton_work(tree, lists, 4)
        let = build_let(part, n_coeffs=35)
        for r in range(4):
            for owner, _ in let.remote_bodies[r] | let.remote_multipoles[r]:
                assert owner != r

    def test_halo_fraction_shrinks_with_n(self):
        # surface-to-volume: the LET's share of full replication (every
        # rank holding all bodies and all multipoles) drops as N grows
        fractions = []
        for n in (4000, 20000):
            ps = plummer(n, seed=1)
            tree = build_adaptive(ps.positions, S=64)
            lists = build_interaction_lists(tree)
            part = partition_by_morton_work(tree, lists, 8)
            let = build_let(part, n_coeffs=35)
            replicate_all = 8 * (
                tree.n_bodies * 32.0 + len(tree.effective_nodes()) * 35 * 8.0
            )
            fractions.append(let.total_bytes(tree) / replicate_all)
        assert fractions[1] < fractions[0] < 1.0

    def test_halo_grows_with_ranks(self, setup):
        tree, lists = setup
        sizes = []
        for p in (2, 4, 8):
            part = partition_by_morton_work(tree, lists, p)
            let = build_let(part, n_coeffs=35)
            sizes.append(let.total_bytes(tree))
        assert sizes[0] < sizes[1] < sizes[2]


class TestDistributedExecutor:
    def test_single_node_matches_shape(self, setup):
        tree, lists = setup
        cluster = ClusterSpec(node=system_a().with_resources(n_cores=10, n_gpus=4), n_nodes=1)
        ex = DistributedExecutor(cluster, order=4, kernel=default_kernel())
        t = ex.time_step(tree, lists)
        assert t.step_time > 0
        assert t.per_rank_comm == [0.0]
        assert t.comm_fraction == 0.0

    def test_strong_scaling_monotone(self, setup):
        tree, lists = setup
        node = system_a().with_resources(n_cores=10, n_gpus=4)
        times = []
        for p in (1, 2, 4):
            ex = DistributedExecutor(
                ClusterSpec(node=node, n_nodes=p), order=4, kernel=default_kernel()
            )
            times.append(ex.time_step(tree, lists).step_time)
        assert times[0] > times[1] > times[2]

    def test_efficiency_decays(self, setup):
        tree, lists = setup
        node = system_a().with_resources(n_cores=10, n_gpus=4)
        t1 = DistributedExecutor(
            ClusterSpec(node=node, n_nodes=1), order=4, kernel=default_kernel()
        ).time_step(tree, lists).step_time
        t8 = DistributedExecutor(
            ClusterSpec(node=node, n_nodes=8), order=4, kernel=default_kernel()
        ).time_step(tree, lists).step_time
        eff8 = t1 / t8 / 8
        assert 0.2 < eff8 < 1.05

    def test_overlap_reduces_step_time(self, setup):
        tree, lists = setup
        node = system_a().with_resources(n_cores=10, n_gpus=4)
        kw = dict(order=4, kernel=default_kernel())
        t_no = DistributedExecutor(
            ClusterSpec(node=node, n_nodes=8, overlap=0.0), **kw
        ).time_step(tree, lists).step_time
        t_yes = DistributedExecutor(
            ClusterSpec(node=node, n_nodes=8, overlap=1.0), **kw
        ).time_step(tree, lists).step_time
        assert t_yes <= t_no

    def test_gpu_less_cluster(self, setup):
        tree, lists = setup
        from repro.machine import system_b

        cluster = ClusterSpec(node=system_b(), n_nodes=4)
        ex = DistributedExecutor(cluster, order=4, kernel=default_kernel())
        t = ex.time_step(tree, lists)
        assert t.step_time > 0

    def test_spec_validation(self):
        node = system_a()
        with pytest.raises(ValueError):
            ClusterSpec(node=node, n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(node=node, n_nodes=2, overlap=1.5)
        with pytest.raises(ValueError):
            ClusterSpec(node=node, n_nodes=2, link_bandwidth=0)
