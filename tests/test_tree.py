"""Tests for the adaptive octree: build invariants, surgery, refit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import gaussian_blobs, plummer, uniform_cube
from repro.geometry import Box, bounding_box
from repro.geometry.morton import decode_morton, morton_keys
from repro.tree import AdaptiveOctree, build_adaptive, build_uniform, uniform_depth_for
from repro.tree.octree import OctreeNode
from repro.util.arrays import stable_key_order
from tests.clouds import CLOUDS
from tests.oracles.tree import RecursiveOctree


def check_invariants(tree: AdaptiveOctree):
    """Core structural invariants of the effective tree."""
    eff = tree.effective_nodes()
    leaves = tree.leaves()
    nodes = tree.nodes
    # 1. leaves partition the bodies
    covered = np.concatenate([tree.bodies(l) for l in leaves]) if leaves else np.array([])
    assert sorted(covered.tolist()) == list(range(tree.n_bodies))
    # 2. every internal node's children partition its range
    for nid in eff:
        node = nodes[nid]
        if node.is_leaf:
            continue
        kids = tree.effective_children(nid)
        assert kids, f"internal node {nid} has no children"
        spans = sorted((nodes[c].lo, nodes[c].hi) for c in kids)
        assert sum(hi - lo for lo, hi in spans) == node.count
        assert spans[0][0] == node.lo and spans[-1][1] == node.hi
    # 3. each body lies geometrically inside its leaf's box
    for l in leaves:
        idx = tree.bodies(l)
        if idx.size:
            assert nodes[l].box.contains(tree.points[idx], atol=1e-9).all()
    # 4. levels increase down the tree
    for nid in eff:
        node = nodes[nid]
        if node.parent >= 0:
            assert node.level == nodes[node.parent].level + 1


class TestBuild:
    def test_leaf_capacity_respected(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=30)
        for l in tree.leaves():
            assert tree.nodes[l].count <= 30
        check_invariants(tree)

    def test_uniform_distribution(self, uniform_small):
        tree = build_adaptive(uniform_small.positions, S=50)
        check_invariants(tree)

    def test_highly_clustered(self):
        ps = gaussian_blobs(1000, seed=0, sigma_fraction=0.002)
        tree = build_adaptive(ps.positions, S=20)
        check_invariants(tree)
        assert tree.depth() >= 4  # tight blobs force deep refinement

    def test_single_body(self):
        tree = build_adaptive(np.array([[0.1, 0.2, 0.3]]), S=5)
        assert len(tree.leaves()) == 1
        assert tree.nodes[0].is_leaf

    def test_duplicate_points(self):
        # duplicates can never be separated; max_level stops the recursion
        pts = np.tile(np.array([[0.5, 0.5, 0.5]]), (20, 1))
        pts = np.vstack([pts, np.array([[0.0, 0.0, 0.0]])])
        tree = AdaptiveOctree(pts, S=4, max_level=6)
        check_invariants(tree)
        assert max(tree.nodes[l].count for l in tree.leaves()) >= 20

    def test_explicit_root_box(self, uniform_small):
        root = Box((0, 0, 0), 10.0)
        tree = build_adaptive(uniform_small.positions, S=40, root_box=root)
        assert tree.nodes[0].size == 10.0
        check_invariants(tree)

    def test_root_box_must_contain_points(self):
        with pytest.raises(ValueError):
            AdaptiveOctree(np.array([[5.0, 0, 0]]), S=4, root_box=Box((0, 0, 0), 1.0))

    def test_invalid_params(self, uniform_small):
        with pytest.raises(ValueError):
            AdaptiveOctree(uniform_small.positions, S=0)
        with pytest.raises(ValueError):
            AdaptiveOctree(uniform_small.positions, S=4, max_level=0)
        with pytest.raises(ValueError):
            AdaptiveOctree(np.zeros((3, 2)), S=4)

    @given(st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_random_sizes_property(self, n, S):
        rng = np.random.default_rng(n * 1000 + S)
        pts = rng.uniform(-1, 1, (n, 3))
        tree = build_adaptive(pts, S=S)
        leaves = tree.leaves()
        total = sum(tree.nodes[l].count for l in leaves)
        assert total == n

    def test_leaf_of_body(self, plummer_small):
        """Each body sits in exactly one effective leaf, whose box holds it."""
        tree = build_adaptive(plummer_small.positions, S=25)
        for body in [0, 17, 100, plummer_small.n - 1]:
            (leaf,) = [l for l in tree.leaves() if body in tree.bodies(l)]
            assert tree.nodes[leaf].box.contains(tree.points[body], atol=1e-12).all()

    def test_stats(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=25)
        s = tree.stats()
        assert s["n_bodies"] == plummer_small.n
        assert s["leaf_count_max"] <= 25
        assert s["n_leaves"] == len(tree.leaves())


class TestSurgery:
    def test_collapse_makes_leaf(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=20)
        internal = [n for n in tree.effective_nodes() if not tree.nodes[n].is_leaf and n != 0]
        nid = internal[-1]
        count_before = tree.nodes[nid].count
        tree.collapse(nid)
        assert tree.nodes[nid].is_leaf
        assert tree.nodes[nid].count == count_before
        check_invariants(tree)

    def test_collapse_requires_internal(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=20)
        leaf = tree.leaves()[0]
        with pytest.raises(ValueError):
            tree.collapse(leaf)

    def test_pushdown_reclaims_hidden(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=20)
        internal = [n for n in tree.effective_nodes() if not tree.nodes[n].is_leaf and n != 0]
        nid = internal[-1]
        n_nodes_before = len(tree.nodes)
        tree.collapse(nid)
        kids = tree.pushdown(nid)
        assert len(tree.nodes) == n_nodes_before  # reclaimed, not reallocated
        assert all(not tree.nodes[c].hidden for c in kids)
        check_invariants(tree)

    def test_pushdown_allocates_new(self, uniform_small):
        tree = build_adaptive(uniform_small.positions, S=1000)
        leaf = max(tree.leaves(), key=lambda l: tree.nodes[l].count)
        before = len(tree.nodes)
        kids = tree.pushdown(leaf)
        assert len(tree.nodes) > before
        assert sum(tree.nodes[c].count for c in kids) == tree.nodes[leaf].count
        check_invariants(tree)

    def test_pushdown_requires_leaf(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=20)
        with pytest.raises(ValueError):
            tree.pushdown(0)  # root is internal at this S

    def test_collapse_pushdown_roundtrip_effective_shape(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=40)
        internal = [
            n
            for n in tree.effective_nodes()
            if not tree.nodes[n].is_leaf
            and all(tree.nodes[c].is_leaf for c in tree.effective_children(n))
        ]
        nid = internal[0]
        kids_before = set(tree.effective_children(nid))
        tree.collapse(nid)
        tree.pushdown(nid)
        assert set(tree.effective_children(nid)) == kids_before
        check_invariants(tree)


class TestEnforceS:
    def test_enforce_restores_capacity(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=60)
        tree.enforce_s(25)
        for l in tree.leaves():
            node = tree.nodes[l]
            assert node.count <= 25 or node.level >= tree.max_level
        check_invariants(tree)

    def test_enforce_collapses_underfull(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=20)
        n_leaves_before = len(tree.leaves())
        ops = tree.enforce_s(200)  # much larger S: many parents now underfull
        assert ops["collapses"] > 0
        assert len(tree.leaves()) < n_leaves_before
        check_invariants(tree)

    def test_enforce_idempotent(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=30)
        tree.enforce_s(30)
        ops = tree.enforce_s(30)
        assert ops == {"collapses": 0, "pushdowns": 0}


class TestRefit:
    def test_refit_tracks_moved_bodies(self, uniform_small):
        pts = uniform_small.positions.copy()
        tree = AdaptiveOctree(pts, S=40, root_box=Box((0, 0, 0), 4.0))
        rng = np.random.default_rng(0)
        pts += rng.normal(0, 0.2, pts.shape)
        np.clip(pts, -1.9, 1.9, out=pts)
        tree.points = pts
        tree.refit()
        check_invariants(tree)

    def test_refit_rejects_out_of_box(self, uniform_small):
        pts = uniform_small.positions.copy()
        tree = AdaptiveOctree(pts, S=40)
        pts[0] = tree.root_box.high * 10
        tree.points = pts
        with pytest.raises(ValueError):
            tree.refit()

    def test_refit_preserves_existing_structure(self, uniform_small):
        pts = uniform_small.positions.copy()
        tree = AdaptiveOctree(pts, S=40, root_box=Box((0, 0, 0), 4.0))
        shape_before = [(n.id, n.is_leaf, n.hidden) for n in tree.nodes]
        pts += 0.01
        tree.points = pts
        tree.refit()
        # pre-existing nodes keep their flags; refit may only *append* new
        # leaf children for octants that were empty at build time
        after = [(n.id, n.is_leaf, n.hidden) for n in tree.nodes[: len(shape_before)]]
        assert after == shape_before
        for n in tree.nodes[len(shape_before) :]:
            assert n.is_leaf and not n.hidden


    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_stable_key_order_is_the_stable_argsort(self, name):
        """The unstable sort with its tie runs re-sorted by index gives
        ``kind="stable"``'s permutation — the coincident cloud is all ties."""
        pts, _S = CLOUDS[name](seed=4)
        box = bounding_box(pts)
        keys = morton_keys(pts, box.low, box.size)
        order, sorted_keys = stable_key_order(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(sorted_keys, keys[order])
        if name == "coincident":
            assert np.unique(keys).size < keys.size

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_refit_is_the_per_node_refit(self, name):
        """Ranges from one ``searchsorted`` over every key span and coverage
        from the node table: every node — hidden ones, and the children a
        refit materializes — equals the per-node loop's, field for field."""
        pts, S = CLOUDS[name](seed=6)
        trees = [cls(pts, S=S) for cls in (AdaptiveOctree, _PerNodeRefitOctree)]
        rng = np.random.default_rng(2)
        moved = pts + rng.normal(scale=0.05 * np.ptp(pts), size=pts.shape)
        for tree in trees:
            internal = [n for n in tree.effective_nodes() if not tree.nodes[n].is_leaf]
            if len(internal) > 1:
                tree.collapse(internal[-1])  # a hidden subtree to refit too
            tree.points = np.clip(moved, tree.root_box.low, tree.root_box.high)
            tree.refit()
        assert _node_fields(trees[0]) == _node_fields(trees[1])
        _assert_table_is_the_walk(trees[0])


class _PerNodeRefitOctree(AdaptiveOctree):
    """Refit the way the one ``searchsorted`` replaced: two per node, and
    coverage summed over each internal node's children."""

    def refit(self):
        self._sort_bodies()
        for node in self.nodes:
            node.lo = int(np.searchsorted(self.sorted_keys, node.key_lo, side="left"))
            node.hi = int(np.searchsorted(self.sorted_keys, node.key_hi, side="left"))
        for nid in self.effective_nodes():
            node = self.nodes[nid]
            if not node.is_leaf:
                covered = sum(self.nodes[c].count for c in node.children or [])
                if covered != node.count:
                    self._materialize_missing_children(nid)


class _ChildAtATimeOctree(RecursiveOctree):
    """Built depth first with children allocated the way the batch
    replaced: one child per octant — two global ``searchsorted`` calls and
    a ``Box.child`` each."""

    def _make_children(self, nid, existing=()):
        made = (self._make_child(nid, octant) for octant in range(8) if octant not in existing)
        return [cid for cid in made if cid is not None]

    def _make_child(self, nid, octant):
        node = self.nodes[nid]
        span = (node.key_hi - node.key_lo) >> np.uint64(3)
        klo = node.key_lo + np.uint64(octant) * span
        khi = klo + span
        lo = int(np.searchsorted(self.sorted_keys, klo, side="left"))
        hi = int(np.searchsorted(self.sorted_keys, khi, side="left"))
        if hi == lo:
            return None  # prune empty octants
        cbox = node.box.child(octant)
        self.nodes.append(
            OctreeNode(
                id=len(self.nodes), level=node.level + 1, center=cbox.center_array(),
                size=cbox.size, parent=nid, key_lo=klo, key_hi=khi, lo=lo, hi=hi,
            )
        )
        return len(self.nodes) - 1


def _node_fields(tree):
    return [
        (
            n.id, n.level, n.parent, n.lo, n.hi, int(n.key_lo), int(n.key_hi),
            n.size, n.center.tobytes(), n.children, n.is_leaf, n.hidden,
        )
        for n in tree.nodes
    ]


class TestBatchedChildren:
    """The build and ``_make_children`` against a depth-first build that
    allocates one child per octant: every node identical, field for field,
    centres bit for bit."""

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_build_identical_on_every_cloud(self, name):
        pts, S = CLOUDS[name](seed=11)
        assert _node_fields(AdaptiveOctree(pts, S=S)) == _node_fields(
            _ChildAtATimeOctree(pts, S=S)
        )

    def test_build_identical_when_max_level_clamps(self, plummer_small):
        pts = plummer_small.positions
        batched = AdaptiveOctree(pts, S=1, max_level=3)
        assert batched.depth() == 3 and batched.stats()["leaf_count_max"] > 1
        assert _node_fields(batched) == _node_fields(
            _ChildAtATimeOctree(pts, S=1, max_level=3)
        )

    def test_materialized_children_identical(self):
        # bodies drift into octants that were empty at build time: refit
        # allocates the missing children, one batch per node
        pts, S = CLOUDS["one-octant"](2)
        trees = [cls(pts, S=S) for cls in (AdaptiveOctree, _ChildAtATimeOctree)]
        moved = pts.copy()
        box = trees[0].root_box
        moved[::3] = box.low + box.size * np.random.default_rng(4).random((len(moved[::3]), 3))
        for tree in trees:
            n_nodes = len(tree.nodes)
            tree.points = moved.copy()
            tree.refit()
            assert len(tree.nodes) > n_nodes
        assert _node_fields(trees[0]) == _node_fields(trees[1])

    def test_pushdown_allocation_identical(self, uniform_small):
        trees = [
            cls(uniform_small.positions, S=60) for cls in (AdaptiveOctree, _ChildAtATimeOctree)
        ]
        for tree in trees:
            leaf = next(l for l in tree.leaves() if tree.nodes[l].children is None)
            tree.pushdown(leaf)
        assert _node_fields(trees[0]) == _node_fields(trees[1])


def _assert_table_is_the_walk(tree):
    """Every column of the node table against the per-node walk."""
    tab = tree.node_table()
    eff = tree.effective_nodes()
    nodes = [tree.nodes[i] for i in eff]
    assert tab.structure_generation == tree.structure_generation
    assert tab.generation == tree.generation
    assert tab.ids.tolist() == eff
    assert tab.row_of.tolist() == [
        eff.index(i) if i in set(eff) else -1 for i in range(len(tree.nodes))
    ]
    assert tab.level.tolist() == [n.level for n in nodes]
    assert tab.parent_row.tolist() == [
        eff.index(n.parent) if n.parent >= 0 else -1 for n in nodes
    ]
    assert tab.is_leaf.tolist() == [n.is_leaf for n in nodes]
    assert tab.lo.tolist() == [n.lo for n in nodes]
    assert tab.hi.tolist() == [n.hi for n in nodes]
    assert tab.counts.tolist() == [n.count for n in nodes]
    assert tab.centers.tobytes() == b"".join(n.center.tobytes() for n in nodes)
    for row, n in zip(tab.cell.tolist(), nodes):
        assert row == [int(c) for c in decode_morton(np.uint64(n.key_lo))]


class TestNodeTable:
    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_table_is_the_walk_on_every_cloud(self, name):
        pts, S = CLOUDS[name](seed=5)
        _assert_table_is_the_walk(AdaptiveOctree(pts, S=S))

    def test_table_follows_surgery(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=30)
        before = tree.node_table()
        assert tree.node_table() is before  # memoized
        parent = next(
            nid for nid in tree.effective_nodes()
            if nid and not tree.nodes[nid].is_leaf
        )
        tree.collapse(parent)
        assert tree.node_table() is not before
        _assert_table_is_the_walk(tree)
        tree.pushdown(parent)
        _assert_table_is_the_walk(tree)
        # a leaf with unallocated children: new ids past the old row_of
        tree.pushdown(max(tree.leaves(), key=lambda l: tree.nodes[l].count))
        _assert_table_is_the_walk(tree)

    def test_table_follows_out_of_band_flag_flips(self, plummer_small):
        tree = build_adaptive(plummer_small.positions, S=30)
        tree.node_table()
        parent = next(
            nid for nid in tree.effective_nodes()
            if nid and not tree.nodes[nid].is_leaf
        )
        for d in tree._descendants(parent):
            tree.nodes[d].hidden = True
        tree.nodes[parent].is_leaf = True
        tree.mark_structure_dirty()
        _assert_table_is_the_walk(tree)

    def test_table_on_a_tree_restored_from_a_checkpoint(self, plummer_small):
        # restored field by field, without __init__
        from repro.resilience.checkpoint import tree_from_state, tree_state_arrays

        tree = build_adaptive(plummer_small.positions, S=30)
        restored = tree_from_state(plummer_small.positions, *tree_state_arrays(tree))
        _assert_table_is_the_walk(restored)
        assert restored.node_table().centers.tobytes() == tree.node_table().centers.tobytes()

    def test_pure_refit_keeps_structure_columns_and_replaces_ranges(self, uniform_small):
        pts = uniform_small.positions.copy()
        tree = build_adaptive(pts, S=40)
        before = tree.node_table()
        rng = np.random.default_rng(3)
        moved = pts + rng.normal(scale=0.02 * tree.root_box.size, size=pts.shape)
        tree.points = np.clip(moved, tree.root_box.low, tree.root_box.high)
        sgen = tree.structure_generation
        tree.refit()
        if tree.structure_generation != sgen:
            pytest.skip("drift materialized a pruned octant")
        after = tree.node_table()
        assert after.structure_generation == before.structure_generation
        assert after.generation != before.generation
        for col in ("ids", "row_of", "level", "parent_row", "is_leaf", "cell", "centers"):
            assert getattr(after, col) is getattr(before, col), col
        assert after.lo is not before.lo and after.hi is not before.hi
        assert not np.array_equal(after.lo, before.lo)  # bodies changed leaves
        _assert_table_is_the_walk(tree)


class TestUniformTree:
    @pytest.mark.parametrize(
        "n,S,expected", [(100, 100, 0), (1000, 100, 2), (8000, 1000, 1), (64000, 1000, 2)]
    )
    def test_depth_rule(self, n, S, expected):
        assert uniform_depth_for(n, S) == expected

    def test_all_leaves_same_level(self, uniform_small):
        tree = build_uniform(uniform_small.positions, depth=3)
        levels = {tree.nodes[l].level for l in tree.leaves()}
        assert levels == {3}
        check_invariants(tree)

    def test_from_s(self, uniform_small):
        tree = build_uniform(uniform_small.positions, S=100)
        assert tree.uniform_depth == uniform_depth_for(uniform_small.n, 100)

    def test_requires_exactly_one_of_s_depth(self, uniform_small):
        with pytest.raises(ValueError):
            build_uniform(uniform_small.positions)
        with pytest.raises(ValueError):
            build_uniform(uniform_small.positions, S=10, depth=2)

    def test_depth_validation(self, uniform_small):
        with pytest.raises(ValueError):
            build_uniform(uniform_small.positions, depth=25)
        with pytest.raises(ValueError):
            uniform_depth_for(0, 10)
        with pytest.raises(ValueError):
            uniform_depth_for(10, 0)
