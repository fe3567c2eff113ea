"""The seven body clouds the structural contracts are stated on (ROADMAP's
correctness pillar): three ordinary ones and the degenerate inputs a tree,
a list build and a plan must survive.  ``CLOUDS[name](seed)`` returns
``(points, S)``.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.generators import exponential_disk, plummer, uniform_cube

__all__ = ["CLOUDS", "deep_cluster"]


def _shell(seed):
    v = np.random.default_rng(seed).normal(size=(500, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True), 10


def _coincident(seed):
    # every position three times: leaves over capacity at max_level
    return np.repeat(uniform_cube(60, seed=seed).positions, 3, axis=0), 2


def _one_octant(seed):
    cloud = uniform_cube(300, size=0.4, center=(0.7, 0.7, 0.7), seed=seed).positions
    return np.vstack([[[-1.0, -1.0, -1.0]], cloud]), 12


CLOUDS = {
    "plummer": lambda seed: (plummer(600, seed=seed).positions, 16),
    "uniform": lambda seed: (uniform_cube(600, seed=seed).positions, 8),
    # thin and anisotropic: the sparsest sibling octets of the lot
    "disk": lambda seed: (exponential_disk(600, seed=seed).positions, 8),
    "shell": _shell,
    "coincident": _coincident,
    "fewer-than-S": lambda seed: (plummer(20, seed=seed).positions, 64),
    "one-octant": _one_octant,
}


def deep_cluster(seed: int = 0, levels: int = 18) -> np.ndarray:
    """A few bodies spread over the unit cube plus knots ``2**-levels``
    wide: a tree at least 16 levels deep with only a few hundred nodes."""
    rng = np.random.default_rng(seed)
    spread = rng.random((40, 3))
    knots = rng.random((3, 1, 3)) + 2.0**-levels * rng.random((3, 12, 3))
    return np.vstack([spread, knots.reshape(-1, 3)])
