"""Cached lists after a refit grows the tree: one rebuild, equal to a
fresh build and to the scalar oracle.

A refit keeps the tree's shape unless bodies drift into octants that were
empty at build time: then it materializes leaves for them and moves the
shape stamp (``structure_generation``).  The cache's next lookup rebuilds
the lists from scratch and leaves the old ones as they were.
"""

import numpy as np
import pytest

from repro.distributions.generators import gaussian_blobs
from repro.expansions.cartesian import CartesianExpansion
from repro.fmm.farfield import laplace_far_field
from repro.tree import AdaptiveOctree, ListCache, build_interaction_lists
from repro.tree.lists import FAMILIES
from tests.oracles.lists import build_interaction_lists_scalar


def _rows(lists):
    """Every family as ``{owner: sorted row}``, empty rows dropped."""
    return {
        name: {k: sorted(v) for k, v in getattr(lists, name).items() if v}
        for name in FAMILIES
    }


def test_refit_materialization_rebuilds_lists_equal_to_fresh_and_oracle():
    """Bodies drifting into pruned octants: refit materializes leaves for
    them and moves the shape stamp, and the next lookup rebuilds lists
    equal to a fresh build and the scalar oracle."""
    # shove a few bodies toward the root's far corner, walking the drift
    # up from gentle until a refit actually materializes
    rng = np.random.default_rng(21)
    tree = cache = old = None
    for scale in (0.03, 0.08, 0.15, 0.3):
        cand = AdaptiveOctree(gaussian_blobs(700, seed=21).positions, S=12)
        cand_cache = ListCache()
        cand_old = cand_cache.get(cand)
        sgen, n_nodes = cand.structure_generation, len(cand.nodes)
        pts = cand.points.copy()
        k = rng.integers(0, cand.n_bodies, size=12)
        target = cand.root_box.center + 0.49 * cand.root_box.size * np.array(
            [1.0, -1.0, 1.0]
        ) / 2.0
        pts[k] = pts[k] + scale * (target - pts[k])
        cand.points = pts
        cand.refit()
        if len(cand.nodes) > n_nodes:
            assert cand.structure_generation > sgen
            tree, cache, old = cand, cand_cache, cand_old
            created = range(n_nodes, len(cand.nodes))
            break
        assert cand.structure_generation == sgen
    if tree is None:
        pytest.skip("no refit materialization on this cloud")
    assert all(tree.nodes[c].is_leaf for c in created)
    assert all(not tree.nodes[tree.nodes[c].parent].is_leaf for c in created)

    before = _rows(old)
    lists = cache.get(tree)
    assert lists is not old
    assert (cache.builds, cache.hits, cache.repairs) == (2, 0, 0)
    # the lists built before the refit were left as they were
    assert _rows(old) == before
    fresh = build_interaction_lists(tree)
    assert _rows(lists) == _rows(fresh)
    assert _rows(lists) == _rows(build_interaction_lists_scalar(tree))
    assert set(created) <= set(lists.near_sources)

    exp = CartesianExpansion(3)
    q = rng.uniform(-1, 1, tree.n_bodies)
    pot, _ = laplace_far_field(tree, lists, exp, charges=q)
    ref, _ = laplace_far_field(tree, fresh, exp, charges=q)
    np.testing.assert_allclose(pot, ref, rtol=1e-12, atol=1e-12)
