"""Property-based tests: random surgery sequences preserve tree invariants.

A hypothesis-driven state machine applies arbitrary interleavings of
collapse, pushdown, enforce_s, refit (with body movement, which can
materialize children), and out-of-band ``mark_structure_dirty`` edits, and
verifies after every operation that the effective tree still partitions
the bodies, ranges nest, the FMM near/far split stays complete, and the
list cache's one contract holds: a lookup is a hit while the shape stamp
is unchanged and exactly one rebuild after it moved, and what it returns
equals a fresh build and the scalar oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.geometry import Box
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from repro.tree.lists import FAMILIES, InteractionLists
from tests.oracles.lists import build_interaction_lists_scalar


def assert_tree_invariants(tree: AdaptiveOctree):
    eff = tree.effective_nodes()
    leaves = [n for n in eff if tree.nodes[n].is_leaf]
    covered = (
        np.concatenate([tree.bodies(l) for l in leaves]) if leaves else np.array([])
    )
    assert sorted(covered.tolist()) == list(range(tree.n_bodies))
    for nid in eff:
        node = tree.nodes[nid]
        assert not node.hidden
        if not node.is_leaf:
            kids = tree.effective_children(nid)
            assert kids
            assert sum(tree.nodes[c].count for c in kids) == node.count
            for c in kids:
                assert node.lo <= tree.nodes[c].lo <= tree.nodes[c].hi <= node.hi


def assert_once_cover(tree: AdaptiveOctree, lists: InteractionLists):
    """Every leaf pair covered exactly once by near + M2L chain."""
    leaves = tree.leaves()
    pos = {l: k for k, l in enumerate(leaves)}
    count = np.zeros((len(leaves), len(leaves)), dtype=int)
    desc_cache = {}

    def desc(nid):
        if nid not in desc_cache:
            if tree.nodes[nid].is_leaf:
                desc_cache[nid] = [nid]
            else:
                out = []
                for c in tree.effective_children(nid):
                    out.extend(desc(c))
                desc_cache[nid] = out
        return desc_cache[nid]

    for t, sources in lists.near_sources.items():
        for s in sources:
            count[pos[t], pos[s]] += 1
    for tnode, vs in lists.v_list.items():
        for v in vs:
            for tl in desc(tnode):
                for sl in desc(v):
                    count[pos[tl], pos[sl]] += 1
    assert (count == 1).all()


def assert_same_lists(got: InteractionLists, want: InteractionLists):
    """Every family holds the same rows, compared as sets."""
    for name in FAMILIES:
        dg, dw = getattr(got, name), getattr(want, name)
        assert set(dg) == set(dw), name
        for k in dg:
            assert set(dg[k]) == set(dw[k]), (name, k)


class SurgeryMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        self.rng = np.random.default_rng(seed)
        n = int(self.rng.integers(80, 300))
        pts = self.rng.uniform(-0.9, 0.9, (n, 3))
        self.box = Box((0.0, 0.0, 0.0), 2.0)
        self.tree = AdaptiveOctree(pts, S=int(self.rng.integers(4, 40)), root_box=self.box)
        self.cache = ListCache()
        self.cache.get(self.tree)
        self.stamp = self.tree.structure_generation

    @rule()
    def collapse_random(self):
        internal = [
            n for n in self.tree.effective_nodes() if not self.tree.nodes[n].is_leaf and n != 0
        ]
        if internal:
            nid = internal[int(self.rng.integers(0, len(internal)))]
            self.tree.collapse(nid)

    @rule()
    def pushdown_random(self):
        leaves = [
            l
            for l in self.tree.leaves()
            if self.tree.nodes[l].count >= 2 and self.tree.nodes[l].level < self.tree.max_level
        ]
        if leaves:
            nid = leaves[int(self.rng.integers(0, len(leaves)))]
            self.tree.pushdown(nid)

    @rule(s=st.integers(3, 60))
    def enforce(self, s):
        self.tree.enforce_s(s)

    @rule()
    def move_and_refit(self):
        pts = self.tree.points + self.rng.normal(0, 0.05, self.tree.points.shape)
        np.clip(pts, -0.99, 0.99, out=pts)
        self.tree.points = pts
        self.tree.refit()

    @rule()
    def mark_dirty(self):
        self.tree.mark_structure_dirty()

    @invariant()
    def tree_is_consistent(self):
        if hasattr(self, "tree"):
            assert_tree_invariants(self.tree)

    @invariant()
    def cache_hits_or_rebuilds(self):
        if not hasattr(self, "tree"):
            return
        cache, tree = self.cache, self.tree
        moved = tree.structure_generation != self.stamp
        builds, hits = cache.builds, cache.hits
        lists = cache.get(tree)
        assert (cache.builds - builds, cache.hits - hits) == ((1, 0) if moved else (0, 1))
        self.stamp = tree.structure_generation
        # the shape is frozen now: a second lookup counts only a hit
        assert cache.get(tree) is lists
        assert (cache.builds - builds, cache.hits - hits) == ((1, 1) if moved else (0, 2))
        assert_same_lists(lists, build_interaction_lists(tree))
        assert_same_lists(lists, build_interaction_lists_scalar(tree))

    def teardown(self):
        # the expensive completeness check once per example
        if hasattr(self, "tree"):
            lists = build_interaction_lists(self.tree)
            assert_once_cover(self.tree, lists)


SurgeryMachine.TestCase.settings = settings(
    max_examples=15,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestSurgerySequences = SurgeryMachine.TestCase


class ClusteredSurgeryMachine(SurgeryMachine):
    """The same rules and invariants on Plummer and clustered-blob clouds,
    whose deep, lopsided trees put the collapse/pushdown neighbourhoods
    far from the uniform ones; bodies drift gently inside the root box."""

    @initialize(
        seed=st.integers(0, 2**16),
        family=st.sampled_from(["plummer", "blobs"]),
    )
    def setup(self, seed, family):
        from repro.distributions.generators import gaussian_blobs, plummer

        self.rng = np.random.default_rng(seed)
        n = int(self.rng.integers(100, 400))
        gen = plummer if family == "plummer" else gaussian_blobs
        self.tree = AdaptiveOctree(gen(n, seed=seed).positions, S=int(self.rng.integers(4, 32)))
        self.cache = ListCache()
        self.cache.get(self.tree)
        self.stamp = self.tree.structure_generation

    @rule()
    def move_and_refit(self):
        pts = self.tree.points + self.rng.normal(0, 1e-3, self.tree.points.shape)
        self.tree.points = np.clip(pts, self.tree.root_box.low, self.tree.root_box.high)
        self.tree.refit()


ClusteredSurgeryMachine.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestRepairSequences = ClusteredSurgeryMachine.TestCase


class TestEnforceAfterMovement:
    """Directed version of the property: heavy migration then Enforce_S
    restores the capacity invariant."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_migration_then_enforce(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.2, 0.2, (400, 3))  # compact start
        box = Box((0.0, 0.0, 0.0), 2.0)
        tree = AdaptiveOctree(pts, S=16, root_box=box)
        # blow the distribution apart
        pts = pts * 4.0 + rng.normal(0, 0.1, pts.shape)
        np.clip(pts, -0.99, 0.99, out=pts)
        tree.points = pts
        tree.refit()
        tree.enforce_s(16)
        assert_tree_invariants(tree)
        for l in tree.leaves():
            node = tree.nodes[l]
            assert node.count <= 16 or node.level >= tree.max_level
