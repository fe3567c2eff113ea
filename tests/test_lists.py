"""Tests for the adaptive interaction lists: completeness and exactness.

The load-bearing property is the *once-cover theorem*: for every ordered
pair of distinct bodies (i, j), the interaction of j on i is accounted for
exactly once across P2P (near, with the W/X work folded in) and the M2L
chain.
"""

import numpy as np
import pytest

from repro.distributions import gaussian_blobs, plummer, uniform_cube
from repro.tree import build_adaptive, build_interaction_lists
from repro.tree.lists import FAMILIES


def _ancestors_or_self(tree, nid):
    out = []
    while nid >= 0:
        out.append(nid)
        nid = tree.nodes[nid].parent
    return out


def coverage_matrix(tree, lists):
    """count[i, j] = how many mechanisms cover source leaf j -> target leaf i."""
    leaves = tree.leaves()
    pos = {l: k for k, l in enumerate(leaves)}
    n = len(leaves)
    count = np.zeros((n, n), dtype=int)
    leaf_desc = {}

    def desc(nid):
        if nid in leaf_desc:
            return leaf_desc[nid]
        if tree.nodes[nid].is_leaf:
            out = [nid]
        else:
            out = []
            for c in tree.effective_children(nid):
                out.extend(desc(c))
        leaf_desc[nid] = out
        return out

    # near field
    for t, sources in lists.near_sources.items():
        for s in sources:
            count[pos[t], pos[s]] += 1
    # M2L chain: source v-node covers (leaves under target node, leaves under v)
    for tnode, vs in lists.v_list.items():
        t_leaves = desc(tnode)
        for v in vs:
            for tl in t_leaves:
                for sl in desc(v):
                    count[pos[tl], pos[sl]] += 1
    return count


@pytest.mark.parametrize(
    "make",
    [
        lambda: plummer(800, seed=3).positions,
        lambda: uniform_cube(800, seed=4).positions,
        lambda: gaussian_blobs(800, seed=5, sigma_fraction=0.004).positions,
    ],
    ids=["plummer", "uniform", "blobs"],
)
def test_once_cover(make):
    pts = make()
    tree = build_adaptive(pts, S=25)
    lists = build_interaction_lists(tree)
    count = coverage_matrix(tree, lists)
    assert (count == 1).all(), "every leaf pair must be covered exactly once"


class TestListStructure:
    @pytest.fixture(scope="class")
    def setup(self):
        pts = plummer(1200, seed=9).positions
        tree = build_adaptive(pts, S=30)
        return tree, build_interaction_lists(tree)

    def test_self_in_u_list(self, setup):
        tree, lists = setup
        for b in tree.leaves():
            assert b in lists.u_list[b]

    def test_u_list_symmetric(self, setup):
        tree, lists = setup
        for b, us in lists.u_list.items():
            for u in us:
                assert b in lists.u_list[u]

    def test_v_list_same_level(self, setup):
        tree, lists = setup
        for b, vs in lists.v_list.items():
            for v in vs:
                assert tree.nodes[v].level == tree.nodes[b].level

    def test_v_list_well_separated(self, setup):
        tree, lists = setup
        for b, vs in lists.v_list.items():
            cb = tree.nodes[b]
            for v in vs:
                cv = tree.nodes[v]
                gap = np.abs(cb.center - cv.center).max()
                assert gap > (cb.size + cv.size) / 2 + 1e-12

    def test_v_list_bounded_189(self, setup):
        # in 3D the V list of any node has at most 6^3 - 3^3 = 189 entries
        _, lists = setup
        assert max((len(v) for v in lists.v_list.values()), default=0) <= 189

    def test_colleagues_bounded_27(self, setup):
        _, lists = setup
        assert max(len(c) for c in lists.colleagues.values()) <= 27

    def test_w_x_duality(self, setup):
        """Folded, W and its dual X make the near field symmetric: a W
        leaf t is a P2P source of b exactly when b is one of t."""
        _, lists = setup
        near = {b: set(ss) for b, ss in lists.near_sources.items()}
        for b, ss in near.items():
            for s in ss:
                assert b in near[s]

    def test_folded_has_no_wx(self):
        """No W or X list survives the fold: the near sources are the U
        list plus the folded W/X leaves, the far field M2L alone."""
        pts = plummer(600, seed=2).positions
        tree = build_adaptive(pts, S=20)
        lists = build_interaction_lists(tree)
        assert FAMILIES == ("colleagues", "v_list", "u_list", "near_sources")
        assert not hasattr(lists, "w_list") and not hasattr(lists, "x_list")
        for b, us in lists.u_list.items():
            assert lists.near_sources[b][: len(us)] == us
        assert any(len(lists.near_sources[b]) > len(us) for b, us in lists.u_list.items())


class TestOpCounts:
    def test_p2p_count_is_symmetric_total(self):
        pts = uniform_cube(500, seed=1).positions
        tree = build_adaptive(pts, S=30)
        lists = build_interaction_lists(tree)
        counts = lists.op_counts()
        # every body interacts with every near-field body incl. itself
        # (the FMM excludes the self term but the work model counts p_t*p_s)
        manual = sum(
            tree.nodes[t].count * sum(tree.nodes[s].count for s in ss)
            for t, ss in lists.near_sources.items()
        )
        assert counts["P2P"] == manual

    def test_p2m_l2p_counts_per_body(self):
        pts = plummer(700, seed=6).positions
        tree = build_adaptive(pts, S=40)
        lists = build_interaction_lists(tree)
        counts = lists.op_counts()
        # per-body units: coefficients transfer between tree shapes
        assert counts["P2M"] == 700
        assert counts["L2P"] == 700

    def test_m2m_l2l_are_shift_counts(self):
        pts = plummer(700, seed=6).positions
        tree = build_adaptive(pts, S=40)
        lists = build_interaction_lists(tree)
        counts = lists.op_counts()
        shifts = sum(
            len(tree.effective_children(n))
            for n in tree.effective_nodes()
            if not tree.nodes[n].is_leaf
        )
        assert counts["M2M"] == shifts == counts["L2L"]

    def test_interactions_of_leaf(self):
        pts = uniform_cube(400, seed=3).positions
        tree = build_adaptive(pts, S=50)
        lists = build_interaction_lists(tree)
        t = tree.leaves()[0]
        manual = tree.nodes[t].count * sum(
            tree.nodes[s].count for s in lists.near_sources[t]
        )
        assert lists.interactions_of_leaf(t) == manual
