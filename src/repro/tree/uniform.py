"""Uniform (fixed-depth) octree decomposition — the paper's FMM baseline.

The original FMM subdivides space to a fixed depth
``ceil(log8(N / S))`` so that *on average* a leaf holds S bodies; for
non-uniform distributions actual leaf populations then vary wildly,
which is the source of the "Uniform Gap" of Fig. 4: the whole tree gains
or loses a full level as S crosses a power-of-8 threshold.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.box import Box
from repro.geometry.morton import MAX_MORTON_LEVEL
from repro.tree.octree import AdaptiveOctree

__all__ = ["uniform_depth_for", "build_uniform"]


def uniform_depth_for(n_bodies: int, S: int, *, max_level: int = MAX_MORTON_LEVEL - 1) -> int:
    """Depth = ceil(log8(N / S)), clamped to [0, max_level]."""
    if n_bodies <= 0:
        raise ValueError("n_bodies must be positive")
    if S < 1:
        raise ValueError("S must be >= 1")
    if n_bodies <= S:
        return 0
    depth = math.ceil(math.log(n_bodies / S, 8.0))
    return max(0, min(depth, max_level))


class UniformOctree(AdaptiveOctree):
    """Fixed-depth octree: every (nonempty) leaf sits at the same level.

    Implemented as an adaptive octree whose split rule ignores counts and
    subdivides every nonempty node down to ``depth``.  Empty octants are
    pruned (they hold no bodies and generate no work), which preserves the
    uniform FMM's cost structure while keeping memory proportional to the
    occupied cells.
    """

    def __init__(self, points: np.ndarray, depth: int, *, root_box: Box | None = None) -> None:
        if not 0 <= depth <= MAX_MORTON_LEVEL - 1:
            raise ValueError(f"depth must be in 0..{MAX_MORTON_LEVEL - 1}, got {depth}")
        self.uniform_depth = int(depth)
        # the overridden _split_mask enforces the fixed depth, whatever S
        super().__init__(points, S=max(1, points.shape[0]), max_level=max(1, depth) if depth else 1, root_box=root_box)

    def _split_mask(self, level: int, counts: np.ndarray) -> np.ndarray:
        return (counts > 0) & (level < self.uniform_depth)


def build_uniform(
    points: np.ndarray,
    *,
    S: int | None = None,
    depth: int | None = None,
    root_box: Box | None = None,
) -> UniformOctree:
    """Build a fixed-depth octree, from an explicit ``depth`` or from ``S``
    via the uniform-FMM depth rule."""
    if (S is None) == (depth is None):
        raise ValueError("provide exactly one of S or depth")
    if depth is None:
        depth = uniform_depth_for(np.atleast_2d(points).shape[0], S)
    tree = UniformOctree(points, depth, root_box=root_box)
    if S is not None:
        tree.S = S  # record the S that induced this depth (for cost reports)
    return tree
