"""Axis-aligned cubic boxes used by the octree decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "bounding_box"]


@dataclass(frozen=True)
class Box:
    """An axis-aligned cube: ``center`` (3-vector) and edge ``size``.

    The octree works exclusively with cubes, so a single scalar size
    suffices; this keeps child subdivision exact (no per-axis drift).
    """

    center: tuple[float, float, float]
    size: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"box size must be positive, got {self.size}")

    @property
    def half(self) -> float:
        return self.size / 2.0

    @property
    def low(self) -> np.ndarray:
        return np.asarray(self.center) - self.half

    @property
    def high(self) -> np.ndarray:
        return np.asarray(self.center) + self.half

    def contains(self, points: np.ndarray, *, atol: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the closed box (± ``atol``)."""
        pts = np.atleast_2d(points)
        lo = self.low - atol
        hi = self.high + atol
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def child(self, octant: int) -> "Box":
        """The cube of child ``octant`` (0..7, bit k of octant = axis k side)."""
        if not 0 <= octant < 8:
            raise ValueError(f"octant must be in 0..7, got {octant}")
        q = self.size / 4.0
        cx, cy, cz = self.center
        dx = q if octant & 1 else -q
        dy = q if octant & 2 else -q
        dz = q if octant & 4 else -q
        return Box((cx + dx, cy + dy, cz + dz), self.half)

    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


def bounding_box(points: np.ndarray, *, pad: float = 1e-9) -> Box:
    """Smallest cube (slightly padded) containing all ``points``.

    Padding keeps points on the boundary strictly interior so that octant
    classification (strict < on the center) never loses a body.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("cannot bound zero points")
    if pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got shape {pts.shape}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    size = float((hi - lo).max())
    size = size * (1.0 + pad) + pad
    return Box(tuple(center), size)
