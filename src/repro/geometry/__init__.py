"""Geometric primitives: axis-aligned boxes and Morton keys."""

from repro.geometry.box import Box, bounding_box
from repro.geometry.morton import (
    MAX_MORTON_LEVEL,
    decode_morton,
    encode_morton,
    interleave3,
    deinterleave3,
    morton_keys,
)

__all__ = [
    "Box",
    "bounding_box",
    "MAX_MORTON_LEVEL",
    "encode_morton",
    "decode_morton",
    "interleave3",
    "deinterleave3",
    "morton_keys",
]
