"""Unit and property tests for the uniform grid index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.spatial.grid import GridIndex


def _random_points(n, seed=0, extent=1000.0):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, extent, size=(n, 2))]


class TestBasics:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(0.0)

    def test_len_and_extend(self):
        g: GridIndex[int] = GridIndex(100.0)
        g.extend((p, i) for i, p in enumerate(_random_points(30)))
        assert len(g) == 30
        assert g.cell_size == 100.0

    def test_negative_radius_raises(self):
        g: GridIndex[int] = GridIndex(10.0)
        with pytest.raises(ValueError):
            g.search_radius(Point(0, 0), -1.0)

    def test_negative_coordinates_supported(self):
        g: GridIndex[int] = GridIndex(50.0)
        g.insert(Point(-120, -10), 1)
        assert g.search_radius(Point(-120, -10), 1.0) == [1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        g: GridIndex[int] = GridIndex(50.0)
        g.insert(Point(1.0, 2.0), 0)
        for p in (Point(bad, 0.0), Point(0.0, bad)):
            with pytest.raises(ValueError, match="not finite"):
                g.insert(p, 1)
            with pytest.raises(ValueError, match="not finite"):
                g.search_radius(p, 10.0)
            with pytest.raises(ValueError, match="not finite"):
                g.remove(p, 0)
        assert len(g) == 1
        assert g.search_radius(Point(1.0, 2.0), 0.0) == [0]

    def test_nan_radius_rejected(self):
        g: GridIndex[int] = GridIndex(50.0)
        with pytest.raises(ValueError):
            g.search_radius(Point(0, 0), math.nan)

    def test_remove(self):
        g: GridIndex[int] = GridIndex(50.0)
        g.insert(Point(10, 10), 1)
        g.insert(Point(10, 10), 2)
        g.insert(Point(400, 10), 3)
        assert g.remove(Point(10, 10), 1)
        assert not g.remove(Point(10, 10), 1)  # already gone
        assert not g.remove(Point(11, 10), 2)  # wrong position
        assert not g.remove(Point(9_000, 10), 2)  # empty cell
        assert len(g) == 2
        assert g.search_radius(Point(10, 10), 1.0) == [2]
        assert g.remove(Point(400, 10), 3)
        assert g.search_bbox(BBox(-1e6, -1e6, 1e6, 1e6)) == [2]


class TestQueries:
    def test_bbox_matches_brute(self):
        pts = _random_points(250, seed=1)
        g: GridIndex[int] = GridIndex(80.0)
        g.extend((p, i) for i, p in enumerate(pts))
        box = BBox(100, 100, 420, 700)
        expected = {
            i
            for i, p in enumerate(pts)
            if box.min_x <= p.x <= box.max_x and box.min_y <= p.y <= box.max_y
        }
        assert set(g.search_bbox(box)) == expected

    def test_radius_matches_brute(self):
        pts = _random_points(250, seed=2)
        g: GridIndex[int] = GridIndex(60.0)
        g.extend((p, i) for i, p in enumerate(pts))
        c = Point(400, 600)
        expected = {i for i, p in enumerate(pts) if p.distance_to(c) <= 130}
        assert set(g.search_radius(c, 130)) == expected

    def test_hits_in_cell_order_then_insertion_order(self):
        """Cells ``ix``-major then ``iy``; insertion order within a cell."""
        g: GridIndex[str] = GridIndex(100.0)
        g.insert(Point(150, 50), "c")  # cell (1, 0)
        g.insert(Point(50, 150), "b")  # cell (0, 1)
        g.insert(Point(60, 60), "a2")  # cell (0, 0)
        g.insert(Point(40, 40), "a1")  # cell (0, 0), inserted later
        g.insert(Point(150, 150), "d")  # cell (1, 1)
        order = ["a2", "a1", "b", "c", "d"]
        assert g.search_radius(Point(100, 100), 200.0) == order
        assert g.search_bbox(BBox(0, 0, 200, 200)) == order
        # A box far wider than the occupied cells keeps the same order.
        assert g.search_bbox(BBox(-1e12, -1e12, 1e12, 1e12)) == order
        assert g.search_radius(Point(100, 100), math.inf) == order

    def test_rim_probe_case(self):
        """A point exactly on the circle (by ``distance_to``) is a hit.

        Its squared distance exceeds the squared radius in floating
        point, so a squared-distance test would drop it.
        """
        g: GridIndex[int] = GridIndex(300.0)
        g.insert(Point(375.4383470969396, 113.38990608802524), 0)
        c = Point(570.182107370464, 74.3948054729562)
        assert g.search_radius(c, 198.60954165762354) == [0]

    @pytest.mark.parametrize("cell", [13.0, 300.0, 500.0])
    def test_rim_probes_match_scan(self, cell):
        rng = np.random.default_rng(int(cell))
        pts = _random_points(200, seed=int(cell), extent=2_000.0)
        g: GridIndex[int] = GridIndex(cell)
        g.extend((p, i) for i, p in enumerate(pts))
        for __ in range(300):
            target = pts[int(rng.integers(len(pts)))]
            dx, dy = rng.uniform(-600.0, 600.0, size=2)
            c = Point(target.x + float(dx), target.y + float(dy))
            radius = target.distance_to(c)
            expected = [i for i, p in enumerate(pts) if p.distance_to(c) <= radius]
            assert sorted(g.search_radius(c, radius)) == expected


class TestDifferentialProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
            min_size=0,
            max_size=100,
        ),
        st.tuples(st.floats(-500, 500), st.floats(-500, 500)),
        st.floats(1, 300),
        st.sampled_from([13.0, 57.0, 250.0]),
    )
    def test_radius_differential(self, raw, center, radius, cell):
        pts = [Point(x, y) for x, y in raw]
        g: GridIndex[int] = GridIndex(cell)
        g.extend((p, i) for i, p in enumerate(pts))
        c = Point(*center)
        expected = {i for i, p in enumerate(pts) if p.distance_to(c) <= radius}
        assert set(g.search_radius(c, radius)) == expected
