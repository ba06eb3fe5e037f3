"""Unit tests for the GPS trajectory model (Definition 1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.point import Point
from repro.trajectory.model import LOW_SAMPLING_THRESHOLD_S, GPSPoint, Trajectory


def traj(coords_times, tid=1):
    return Trajectory.build(
        tid, [GPSPoint(Point(x, y), t) for (x, y, t) in coords_times]
    )


class TestGPSPoint:
    def test_accessors(self):
        p = GPSPoint(Point(1, 2), 10.0)
        assert p.x == 1 and p.y == 2 and p.t == 10.0

    def test_distance(self):
        a = GPSPoint(Point(0, 0), 0.0)
        b = GPSPoint(Point(3, 4), 1.0)
        assert a.distance_to(b) == 5.0

    def test_speed(self):
        a = GPSPoint(Point(0, 0), 0.0)
        b = GPSPoint(Point(100, 0), 10.0)
        assert a.speed_to(b) == 10.0

    def test_speed_simultaneous_raises(self):
        a = GPSPoint(Point(0, 0), 5.0)
        b = GPSPoint(Point(1, 0), 5.0)
        with pytest.raises(ValueError):
            a.speed_to(b)


class TestTrajectoryConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Trajectory.build(1, [])

    def test_non_monotone_raises(self):
        with pytest.raises(ValueError):
            traj([(0, 0, 0.0), (1, 0, 0.0)])
        with pytest.raises(ValueError):
            traj([(0, 0, 5.0), (1, 0, 1.0)])

    def test_nan_timestamp_raises(self):
        # Every comparison with NaN is false, so the strict-increase
        # check alone would let this trajectory through.
        with pytest.raises(ValueError, match="not finite"):
            traj([(0, 0, 0.0), (1, 0, math.nan), (2, 0, 2.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_raise(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            traj([(0, 0, 0.0), (bad, 0, 1.0)])
        with pytest.raises(ValueError, match="not finite"):
            traj([(0, bad, 0.0)])

    def test_single_point_ok(self):
        t = traj([(0, 0, 0.0)])
        assert len(t) == 1
        assert t.duration == 0.0
        assert t.mean_sampling_interval == 0.0


class TestTrajectoryStats:
    def test_duration(self):
        t = traj([(0, 0, 0.0), (1, 0, 30.0), (2, 0, 90.0)])
        assert t.duration == 90.0

    def test_mean_interval(self):
        t = traj([(0, 0, 0.0), (1, 0, 30.0), (2, 0, 90.0)])
        assert t.mean_sampling_interval == 45.0

    def test_max_interval(self):
        t = traj([(0, 0, 0.0), (1, 0, 30.0), (2, 0, 90.0)])
        assert t.max_sampling_interval == 60.0

    def test_low_sampling_predicate(self):
        fast = traj([(0, 0, 0.0), (1, 0, 30.0)])
        slow = traj([(0, 0, 0.0), (1, 0, 200.0)])
        assert not fast.is_low_sampling_rate()
        assert slow.is_low_sampling_rate()
        assert LOW_SAMPLING_THRESHOLD_S == 120.0

    def test_path_length(self):
        t = traj([(0, 0, 0.0), (3, 0, 1.0), (3, 4, 2.0)])
        assert t.path_length() == 7.0

    def test_bbox(self):
        t = traj([(0, 5, 0.0), (2, -1, 1.0)])
        b = t.bbox()
        assert (b.min_x, b.min_y, b.max_x, b.max_y) == (0, -1, 2, 5)


class TestNearest:
    def test_nearest_index(self):
        t = traj([(0, 0, 0.0), (10, 0, 1.0), (20, 0, 2.0)])
        assert t.nearest_index(Point(11, 1)) == 1
        assert t.nearest_point(Point(19, 0)).x == 20

    def test_nearest_first_wins_ties(self):
        t = traj([(0, 0, 0.0), (10, 0, 1.0)])
        assert t.nearest_index(Point(5, 0)) == 0

    def test_nearest_refines_underflowed_squared_ties(self):
        # Both squared distances underflow to 0.0 (5e-171² < min subnormal),
        # but the true distances differ: the scan must fall back to the
        # unsquared metric instead of letting the earlier index win a
        # tie that only exists because of the underflow.
        t = traj([(0.0, 5e-171, 0.0), (0.0, 0.0, 1.0)])
        assert t.nearest_index(Point(0.0, 0.0)) == 1

    def test_nearest_among_given_indices(self):
        t = traj([(0, 0, 0.0), (10, 0, 1.0), (20, 0, 2.0), (20, 0, 3.0)])
        q = Point(1, 0)
        assert t.nearest_index(q) == 0
        assert t.nearest_index(q, [1, 2]) == 1
        assert t.nearest_index(q, [2, 3]) == 2  # lowest index wins ties


class TestSlicing:
    def test_slice_inclusive(self):
        t = traj([(0, 0, 0.0), (1, 0, 1.0), (2, 0, 2.0), (3, 0, 3.0)])
        s = t.slice(1, 2)
        assert len(s) == 2
        assert s[0].x == 1 and s[1].x == 2
        assert s.traj_id == t.traj_id

    def test_slice_reversed_raises(self):
        t = traj([(0, 0, 0.0), (1, 0, 1.0)])
        with pytest.raises(ValueError):
            t.slice(1, 0)

    def test_time_window(self):
        t = traj([(0, 0, 0.0), (1, 0, 10.0), (2, 0, 20.0)])
        w = t.time_window(5.0, 15.0)
        assert w is not None and len(w) == 1 and w[0].x == 1

    def test_time_window_empty_returns_none(self):
        t = traj([(0, 0, 0.0), (1, 0, 10.0)])
        assert t.time_window(100.0, 200.0) is None

    def test_positions(self):
        t = traj([(0, 0, 0.0), (1, 2, 1.0)])
        assert t.positions() == [Point(0, 0), Point(1, 2)]


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=2,
            max_size=20,
        )
    )
    def test_mean_interval_between_min_max(self, coords):
        pts = [GPSPoint(Point(x, y), float(i) * 7.0) for i, (x, y) in enumerate(coords)]
        t = Trajectory.build(1, pts)
        assert t.mean_sampling_interval <= t.max_sampling_interval + 1e-9
        assert math.isclose(t.mean_sampling_interval, 7.0)

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=1,
            max_size=20,
        ),
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    )
    def test_nearest_is_argmin(self, coords, q):
        pts = [GPSPoint(Point(x, y), float(i)) for i, (x, y) in enumerate(coords)]
        t = Trajectory.build(1, pts)
        query = Point(*q)
        i = t.nearest_index(query)
        best = min(p.point.distance_to(query) for p in pts)
        assert math.isclose(pts[i].point.distance_to(query), best)
