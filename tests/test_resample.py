"""Unit tests for downsampling and GPS noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.point import Point
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.resample import add_gps_noise, downsample, shift_time


def uniform_traj(n=20, dt=15.0):
    pts = [GPSPoint(Point(i * 10.0, 0.0), i * dt) for i in range(n)]
    return Trajectory.build(7, pts)


class TestDownsample:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            downsample(uniform_traj(), 0.0)

    def test_nan_interval_refused(self):
        # NaN fails every comparison, so a NaN interval would keep only
        # the endpoints.
        with pytest.raises(ValueError):
            downsample(uniform_traj(), float("nan"))

    def test_keeps_endpoints(self):
        t = uniform_traj(20)
        d = downsample(t, 60.0)
        assert d[0] == t[0]
        assert d[len(d) - 1] == t[19]

    def test_target_interval_respected(self):
        t = uniform_traj(100, dt=15.0)
        d = downsample(t, 120.0)
        gaps = [b.t - a.t for a, b in zip(d.points, d.points[1:-1])]
        assert all(g >= 120.0 for g in gaps)

    def test_short_trajectory_unchanged(self):
        t = uniform_traj(2)
        assert downsample(t, 1000.0) is t

    def test_interval_larger_than_duration(self):
        t = uniform_traj(10, dt=10.0)
        d = downsample(t, 10_000.0)
        assert len(d) == 2  # just the endpoints

    def test_preserves_id(self):
        assert downsample(uniform_traj(), 60.0).traj_id == 7

    @given(st.floats(20.0, 500.0))
    @settings(max_examples=20)
    def test_mean_interval_increases(self, interval):
        t = uniform_traj(100, dt=15.0)
        d = downsample(t, interval)
        if len(d) > 2:
            assert d.mean_sampling_interval >= t.mean_sampling_interval


class TestNoise:
    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            add_gps_noise(uniform_traj(), -1.0)

    def test_zero_sigma_identity(self):
        t = uniform_traj()
        assert add_gps_noise(t, 0.0) is t

    def test_preserves_timestamps(self):
        t = uniform_traj()
        noisy = add_gps_noise(t, 10.0, np.random.default_rng(3))
        assert [p.t for p in noisy.points] == [p.t for p in t.points]

    def test_noise_magnitude_reasonable(self):
        t = uniform_traj(500)
        noisy = add_gps_noise(t, 10.0, np.random.default_rng(5))
        offsets = [a.point.distance_to(b.point) for a, b in zip(t.points, noisy.points)]
        mean_offset = sum(offsets) / len(offsets)
        # Mean of a Rayleigh(10) is ~12.5.
        assert 8.0 < mean_offset < 18.0

    def test_deterministic_given_rng(self):
        t = uniform_traj()
        a = add_gps_noise(t, 10.0, np.random.default_rng(42))
        b = add_gps_noise(t, 10.0, np.random.default_rng(42))
        assert all(p.point == q.point for p, q in zip(a.points, b.points))


class TestShiftTime:
    def test_shift(self):
        t = uniform_traj()
        s = shift_time(t, 100.0)
        assert s[0].t == t[0].t + 100.0
        assert s.duration == t.duration

    def test_positions_unchanged(self):
        t = uniform_traj()
        s = shift_time(t, -50.0)
        assert [p.point for p in s.points] == [p.point for p in t.points]
