"""Unit tests for repro.geo.bbox."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.bbox import BBox
from repro.geo.point import Point

coords = st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def boxes():
    return st.builds(
        lambda a, b: BBox(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)),
        points,
        points,
    )


class TestConstruction:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            BBox(1, 0, 0, 1)
        with pytest.raises(ValueError):
            BBox(0, 1, 1, 0)

    def test_from_points(self):
        b = BBox.from_points([Point(0, 5), Point(3, 1), Point(-2, 2)])
        assert (b.min_x, b.min_y, b.max_x, b.max_y) == (-2, 1, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BBox.from_points([])

    def test_around(self):
        b = BBox.around(Point(0, 0), 10)
        assert b.width == 20 and b.height == 20

    def test_around_negative_radius_raises(self):
        with pytest.raises(ValueError):
            BBox.around(Point(0, 0), -1)


class TestGeometry:
    def test_dimensions(self):
        b = BBox(0, 0, 4, 3)
        assert b.width == 4
        assert b.height == 3
        assert b.area == 12
        assert b.center == Point(2, 1.5)

    def test_intersects(self):
        a = BBox(0, 0, 2, 2)
        assert a.intersects(BBox(1, 1, 3, 3))
        assert a.intersects(BBox(2, 2, 3, 3))  # touching corner counts
        assert not a.intersects(BBox(2.1, 2.1, 3, 3))

    def test_union(self):
        u = BBox(0, 0, 1, 1).union(BBox(2, 2, 3, 3))
        assert (u.min_x, u.min_y, u.max_x, u.max_y) == (0, 0, 3, 3)

    def test_min_distance_inside_is_zero(self):
        assert BBox(0, 0, 2, 2).min_distance_to_point(Point(1, 1)) == 0.0

    def test_min_distance_outside(self):
        assert BBox(0, 0, 1, 1).min_distance_to_point(Point(4, 5)) == 5.0


def contains(outer, inner):
    return (
        outer.min_x <= inner.min_x
        and outer.min_y <= inner.min_y
        and outer.max_x >= inner.max_x
        and outer.max_y >= inner.max_y
    )


class TestBBoxProperties:
    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert contains(u, a)
        assert contains(u, b)

    @given(boxes(), boxes())
    def test_intersects_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), points)
    def test_min_distance_bound(self, b, p):
        # mindist is a lower bound on the distance to any contained point.
        d = b.min_distance_to_point(p)
        assert d <= p.distance_to(b.center) + 1e-6

    @given(boxes(), points)
    def test_contains_iff_mindist_zero(self, b, p):
        inside = b.min_x <= p.x <= b.max_x and b.min_y <= p.y <= b.max_y
        assert inside == (b.min_distance_to_point(p) == 0.0)
