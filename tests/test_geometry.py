"""Tests for boxes, Morton keys, the octree's octant classification and
the list builder's adjacency predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Box,
    bounding_box,
    decode_morton,
    encode_morton,
    morton_keys,
    MAX_MORTON_LEVEL,
)
from repro.tree import AdaptiveOctree
from repro.tree.lists import _adjacency_columns, _adjacent_rows


def _octant_sign(octant):
    """Side of child ``octant`` along each axis: bit k of the octant."""
    return np.array([1.0 if octant >> k & 1 else -1.0 for k in range(3)])


class TestBox:
    def test_basic_geometry(self):
        b = Box((0.0, 0.0, 0.0), 2.0)
        assert b.half == 1.0
        assert np.allclose(b.low, [-1, -1, -1])
        assert np.allclose(b.high, [1, 1, 1])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Box((0, 0, 0), 0.0)
        with pytest.raises(ValueError):
            Box((0, 0, 0), -1.0)

    def test_contains(self):
        b = Box((0.0, 0.0, 0.0), 2.0)
        pts = np.array([[0, 0, 0], [1, 1, 1], [1.01, 0, 0]])
        assert b.contains(pts).tolist() == [True, True, False]

    def test_children_partition_parent(self):
        b = Box((0.5, -0.25, 3.0), 4.0)
        kids = [b.child(o) for o in range(8)]
        # children half the size, centered in the right octant
        for o, k in enumerate(kids):
            assert k.size == pytest.approx(b.size / 2)
            sign = _octant_sign(o)
            assert np.allclose(
                np.asarray(k.center), np.asarray(b.center) + sign * b.size / 4
            )
        # each child corner of the parent is in exactly one child
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.99, 1.99, (200, 3)) + np.asarray(b.center)
        member = np.stack([k.contains(pts) for k in kids])
        # interior points belong to >= 1 child (shared faces allow > 1)
        assert member.any(axis=0).all()

    def test_child_rejects_bad_octant(self):
        with pytest.raises(ValueError):
            Box((0, 0, 0), 1.0).child(8)

    def test_bounding_box_contains_all(self, rng):
        pts = rng.normal(size=(500, 3)) * [1, 5, 0.1]
        b = bounding_box(pts)
        assert b.contains(pts).all()

    def test_bounding_box_rejects_empty(self):
        with pytest.raises(ValueError):
            bounding_box(np.zeros((0, 3)))


class TestMorton:
    @given(
        st.lists(st.integers(0, 2**21 - 1), min_size=1, max_size=50),
        st.lists(st.integers(0, 2**21 - 1), min_size=1, max_size=50),
        st.lists(st.integers(0, 2**21 - 1), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, xs, ys, zs):
        n = min(len(xs), len(ys), len(zs))
        x = np.array(xs[:n], dtype=np.uint64)
        y = np.array(ys[:n], dtype=np.uint64)
        z = np.array(zs[:n], dtype=np.uint64)
        dx, dy, dz = decode_morton(encode_morton(x, y, z))
        assert np.array_equal(dx, x)
        assert np.array_equal(dy, y)
        assert np.array_equal(dz, z)

    def test_morton_order_is_octant_major(self):
        # keys in one octant of the root cube form a contiguous range
        low = np.zeros(3)
        keys = morton_keys(
            np.array([[0.1, 0.1, 0.1], [0.9, 0.1, 0.1], [0.1, 0.9, 0.1], [0.9, 0.9, 0.9]]),
            low,
            1.0,
        )
        span = np.uint64(1) << np.uint64(3 * MAX_MORTON_LEVEL - 3)
        octants = (keys // span).astype(int)
        assert octants.tolist() == [0, 1, 2, 7]

    def test_boundary_points_clamped(self):
        keys = morton_keys(np.array([[1.0, 1.0, 1.0]]), np.zeros(3), 1.0)
        assert keys[0] < (np.uint64(1) << np.uint64(63))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            morton_keys(np.zeros((1, 3)), np.zeros(3), 1.0, level=0)
        with pytest.raises(ValueError):
            morton_keys(np.zeros((1, 3)), np.zeros(3), 1.0, level=22)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_nearby_points_map_to_adjacent_cells(self, cx, cy, cz):
        c = np.array([cx, cy, cz])
        pts = c + np.array([[0.0, 0.0, 0.0], [1e-9, 1e-9, 1e-9]])
        keys = morton_keys(pts, c - 5.0, 20.0)
        # identical points share a key; nearby points land in the same or
        # an adjacent fine-grid cell (they can straddle a cell boundary)
        ax, ay, az = decode_morton(keys[0])
        bx, by, bz = decode_morton(keys[1])
        assert max(abs(int(ax) - int(bx)), abs(int(ay) - int(by)), abs(int(az) - int(bz))) <= 1
        same = morton_keys(pts[:1], c - 5.0, 20.0)
        assert same[0] == keys[0]


def _adjacent(a, b):
    """The list builder's touch test between two integer cells, each
    ``(corner, width)`` on the finest Morton grid."""
    cols = _adjacency_columns(np.array([a[0], b[0]]), np.array([a[1], b[1]]))
    return bool(_adjacent_rows(cols, np.array([0]), np.array([1]))[0])


class TestAdjacency:
    """Cubes are well separated (an M2L pair) iff they do not touch; the
    builder decides it in exact integer cells, so these are stated there."""

    def test_identical_boxes_adjacent(self):
        assert _adjacent(((0, 0, 0), 4), ((0, 0, 0), 4))

    def test_touching_faces(self):
        assert _adjacent(((0, 0, 0), 4), ((4, 0, 0), 4))

    def test_touching_corner(self):
        assert _adjacent(((0, 0, 0), 4), ((4, 4, 4), 4))

    def test_separated(self):
        assert not _adjacent(((0, 0, 0), 4), ((8, 0, 0), 4))
        assert not _adjacent(((0, 0, 0), 4), ((0, 5, 0), 4))

    def test_mixed_sizes(self):
        big = ((0, 0, 0), 8)
        assert _adjacent(big, ((6, 0, 0), 2))  # spans [6, 8]: inside, touching
        assert _adjacent(big, ((8, 0, 0), 2))  # spans [8, 10]: face touching
        assert not _adjacent(big, ((9, 0, 0), 2))  # one-cell gap
        assert not _adjacent(big, ((24, 0, 0), 2))


class TestOctant:
    def test_octant_offsets_unique(self):
        b = Box((0.5, -0.25, 3.0), 4.0)
        assert len({b.child(o).center for o in range(8)}) == 8

    def test_octant_offset_validation(self):
        with pytest.raises(ValueError):
            Box((0, 0, 0), 1.0).child(-1)

    def test_child_octant_classification(self):
        root = Box((0.0, 0.0, 0.0), 4.0)
        pts = np.array([[-1, -1, -1], [1, -1, -1], [-1, 1, -1], [1, 1, 1]], dtype=float)
        tree = AdaptiveOctree(pts, S=1, root_box=root)
        kids = tree.effective_children(0)
        assert [tree.nodes[c].box for c in kids] == [root.child(o) for o in (0, 1, 2, 7)]
        assert [tree.bodies(c).tolist() for c in kids] == [[0], [1], [2], [3]]

    def test_classification_consistent_with_child_boxes(self, rng):
        b = Box((0.2, -0.1, 0.4), 2.0)
        pts = rng.uniform(-0.99, 0.99, (300, 3)) + np.asarray(b.center)
        tree = AdaptiveOctree(pts, S=40, root_box=b)
        kids = tree.effective_children(0)
        assert sum(tree.nodes[c].count for c in kids) == len(pts)
        children = [b.child(o) for o in range(8)]
        for c in kids:
            assert tree.nodes[c].box in children
            assert tree.nodes[c].box.contains(pts[tree.bodies(c)], atol=1e-12).all()
