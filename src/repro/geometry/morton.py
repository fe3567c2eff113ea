"""Morton (Z-order) keys for 3D points.

The adaptive tree builder sorts bodies by Morton key once per rebuild; all
subsequent splits are contiguous-range operations on the sorted order, which
is the vectorized analog of the paper's recursive parallel partition
(§III-B, "recursive parallel partition of the body locations").
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MORTON_LEVEL",
    "interleave3",
    "deinterleave3",
    "encode_morton",
    "decode_morton",
    "morton_keys",
]

#: Levels of refinement representable in a 64-bit key (21 bits per axis).
MAX_MORTON_LEVEL = 21

# Magic-number bit spreading for 21-bit coordinates into every third bit.
_SPREAD_MASKS = (
    (0x1FFFFF, 0),
    (0x1F00000000FFFF, 32),
    (0x1F0000FF0000FF, 16),
    (0x100F00F00F00F00F, 8),
    (0x10C30C30C30C30C3, 4),
    (0x1249249249249249, 2),
)


def interleave3(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each value so they occupy every 3rd bit."""
    v = np.asarray(x, dtype=np.uint64)
    for mask, shift in _SPREAD_MASKS:
        if shift:
            v = (v | (v << np.uint64(shift))) & np.uint64(mask)
        else:
            v = v & np.uint64(mask)
    return v


def deinterleave3(code: np.ndarray) -> np.ndarray:
    """Inverse of :func:`interleave3` (collects every 3rd bit)."""
    v = np.asarray(code, dtype=np.uint64) & np.uint64(0x1249249249249249)
    # compress back: each step shifts then applies the next-coarser mask
    masks = [m for m, _ in _SPREAD_MASKS[:-1]]  # coarsest..finest minus last
    shifts = [s for _, s in _SPREAD_MASKS if s]  # 32, 16, 8, 4, 2
    for mask, shift in zip(reversed(masks), reversed(shifts)):
        v = (v | (v >> np.uint64(shift))) & np.uint64(mask)
    return v


def encode_morton(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave three 21-bit integer coordinates into one 63-bit key."""
    return (
        interleave3(ix)
        | (interleave3(iy) << np.uint64(1))
        | (interleave3(iz) << np.uint64(2))
    )


def decode_morton(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the three integer coordinates from a Morton key."""
    c = np.asarray(code, dtype=np.uint64)
    return (
        deinterleave3(c),
        deinterleave3(c >> np.uint64(1)),
        deinterleave3(c >> np.uint64(2)),
    )


def morton_keys(
    points: np.ndarray,
    low: np.ndarray,
    size: float,
    level: int = MAX_MORTON_LEVEL,
) -> np.ndarray:
    """Morton keys of ``points`` on a 2**level grid over cube (low, size).

    Points exactly on the high boundary are clamped into the last cell.
    """
    if not 0 < level <= MAX_MORTON_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_MORTON_LEVEL}, got {level}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cells = 1 << level
    scaled = pts - np.asarray(low)
    scaled /= float(size)
    scaled *= float(cells)
    # all three axes as the rows of one array, spread in place: the bits
    # of encode_morton(ix, iy, iz) in a third of its passes
    v = scaled.T.astype(np.int64, order="C")
    np.clip(v, 0, cells - 1, out=v)
    v = v.view(np.uint64)
    spill = np.empty_like(v)
    for mask, shift in _SPREAD_MASKS:
        if shift:
            np.left_shift(v, np.uint64(shift), out=spill)
            v |= spill
        v &= np.uint64(mask)
    v[1:] <<= np.array([[1], [2]], dtype=np.uint64)
    key = v[0] | v[1]
    key |= v[2]
    if level < MAX_MORTON_LEVEL:
        key <<= np.uint64(3 * (MAX_MORTON_LEVEL - level))
    return key
