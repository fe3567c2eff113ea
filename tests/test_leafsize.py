"""The leaf-size census and chooser (repro.costmodel.leafsize).

The census reads, from Morton keys alone, what the tree and its folded
lists would be at every S of the ladder; the contract is *exact*: node and
leaf counts equal ``AdaptiveOctree(points, S).stats()`` and the near-pair
count equals ``op_counts()["P2P"]`` — a tolerance of zero pairs — on the
seven structural clouds, a deep knot cloud and served-shape bodies.
"""

import numpy as np
import pytest

from repro.costmodel.leafsize import LEAF_SIZES, census, choose_leaf_size, regressors
from repro.distributions.generators import compact_plummer
from repro.geometry.box import Box, bounding_box
from repro.geometry.morton import morton_keys
from repro.tree.lists import build_interaction_lists
from repro.tree.octree import AdaptiveOctree
from tests.clouds import CLOUDS, deep_cluster

#: near pairs the census may miss or add against the folded lists' P2P count
NEAR_PAIR_TOLERANCE = 0


def _keys(points, box):
    return morton_keys(points, box.low, box.size)


def _check(points, box):
    counts = census(_keys(points, box))
    assert sorted(counts) == list(LEAF_SIZES)
    for S in LEAF_SIZES:
        tree = AdaptiveOctree(points, S, root_box=box)
        stats = tree.stats()
        got = counts[S]
        assert (got.nodes, got.leaves) == (stats["n_nodes"], stats["n_leaves"]), S
        p2p = build_interaction_lists(tree).op_counts()["P2P"]
        assert abs(got.near_pairs - p2p) <= NEAR_PAIR_TOLERANCE, (S, got.near_pairs, p2p)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_census_equals_the_tree_on_every_cloud(cloud, seed):
    points, _ = CLOUDS[cloud](seed)
    _check(points, bounding_box(points))


def test_census_equals_the_tree_on_a_deep_cluster():
    points = deep_cluster(0)
    _check(points, bounding_box(points))


@pytest.mark.parametrize("n", [1, 16, 17, 700, 5000])
def test_census_equals_the_tree_on_served_bodies(n):
    points = compact_plummer(n, seed=3, total_mass=1.0, domain_size=1.0).positions
    _check(points, Box((0.0, 0.0, 0.0), 1.0))


def test_census_reads_keys_in_any_order():
    points = compact_plummer(900, seed=2, total_mass=1.0, domain_size=1.0).positions
    keys = _keys(points, Box((0.0, 0.0, 0.0), 1.0))
    shuffled = np.random.default_rng(0).permutation(keys)
    assert census(shuffled) == census(keys)


def test_choice_is_the_cheapest_rung_and_ties_go_to_the_smaller_S(monkeypatch):
    from repro.costmodel import leafsize

    box = Box((0.0, 0.0, 0.0), 1.0)
    points = compact_plummer(3000, seed=1, total_mass=1.0, domain_size=1.0).positions
    counts = census(_keys(points, box))
    coef = np.array(leafsize._COEFFICIENTS["laplace"])
    cost = {S: float(coef @ regressors(counts[S], 4)) for S in LEAF_SIZES}
    assert choose_leaf_size(points, box, 4, "laplace") == min(LEAF_SIZES, key=cost.get)
    # a model blind to every regressor prices all rungs alike: the smallest wins
    monkeypatch.setitem(leafsize._COEFFICIENTS, "laplace", (0.0, 0.0, 0.0, 1.0))
    assert choose_leaf_size(points, box, 4, "laplace") == LEAF_SIZES[0]


def test_choice_moves_with_the_bodies():
    """No one S fits every request: a few thousand bodies take a shallow
    tree, tens of thousands a deep one (EXPERIMENTS.md, the regret table)."""
    box = Box((0.0, 0.0, 0.0), 1.0)

    def chosen(n):
        points = compact_plummer(n, seed=1, total_mass=1.0, domain_size=1.0).positions
        return choose_leaf_size(points, box, 3, "laplace")

    assert chosen(2000) >= 256
    assert chosen(20000) <= 64
