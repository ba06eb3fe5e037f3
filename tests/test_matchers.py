"""Behavioural tests for the four map matchers.

All matchers share one contract: given a trajectory simulated on a known
route, the matched route should recover (most of) that route.  Easy cases
must be recovered perfectly; harder cases (noise, downsampling) must retain
high accuracy.  The matchers are also checked for their specific design
properties (e.g. HMM resistance to outliers, ST-matching's temporal term).
"""

import math

import numpy as np
import pytest

from repro.eval.metrics import route_accuracy
from repro.mapmatching import (
    HMMConfig,
    HMMMatcher,
    IncrementalConfig,
    IncrementalMatcher,
    IVMMConfig,
    IVMMMatcher,
    STMatcher,
    STMatchingConfig,
)
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.roadnet.shortest_path import shortest_route_between_nodes
from repro.trajectory.resample import downsample
from repro.trajectory.simulate import DriveConfig, drive_route


@pytest.fixture(scope="module")
def city():
    return grid_city(GridCityConfig(nx=10, ny=10, drop_fraction=0.05), np.random.default_rng(41))


@pytest.fixture(scope="module")
def drives(city):
    rng = np.random.default_rng(43)
    cases = []
    for src, dst in [(0, 99), (5, 94), (20, 77)]:
        __, route = shortest_route_between_nodes(city, src, dst)
        d = drive_route(
            city,
            route,
            traj_id=src,
            config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=12.0),
            rng=rng,
        )
        cases.append(d)
    return cases


ALL_MATCHERS = [
    ("incremental", lambda net: IncrementalMatcher(net)),
    ("st", lambda net: STMatcher(net)),
    ("ivmm", lambda net: IVMMMatcher(net)),
    ("hmm", lambda net: HMMMatcher(net)),
]


class TestMatcherContract:
    @pytest.mark.parametrize("name,factory", ALL_MATCHERS)
    def test_high_rate_recovery(self, city, drives, name, factory):
        # A_L charges the endpoint-segment overhang (the first/last GPS
        # points sit on junctions), so even a perfect interior match scores
        # below 1; the greedy incremental baseline is additionally weaker by
        # design.
        floor = 0.55 if name == "incremental" else 0.8
        matcher = factory(city)
        for d in drives:
            result = matcher.match(d.trajectory)
            acc = route_accuracy(city, d.route, result.route)
            assert acc > floor, f"{name} accuracy {acc:.3f} on high-rate input"
            # Everything of the true route must be recovered.
            from repro.eval.metrics import precision_recall

            __, recall = precision_recall(city, d.route, result.route)
            assert recall > 0.9

    @pytest.mark.parametrize("name,factory", ALL_MATCHERS)
    def test_matched_per_point(self, city, drives, name, factory):
        matcher = factory(city)
        result = matcher.match(drives[0].trajectory)
        assert len(result.matched) == len(drives[0].trajectory)
        assert all(c is not None for c in result.matched)

    @pytest.mark.parametrize("name,factory", ALL_MATCHERS)
    def test_route_connected(self, city, drives, name, factory):
        matcher = factory(city)
        result = matcher.match(drives[0].trajectory)
        assert result.route.is_connected(city)

    @pytest.mark.parametrize("name,factory", ALL_MATCHERS)
    def test_single_point_trajectory(self, city, drives, name, factory):
        matcher = factory(city)
        single = drives[0].trajectory.slice(0, 0)
        result = matcher.match(single)
        assert len(result.matched) == 1
        assert result.matched[0] is not None

    @pytest.mark.parametrize("name,factory", ALL_MATCHERS)
    def test_moderate_downsampling(self, city, drives, name, factory):
        matcher = factory(city)
        floor = 0.55 if name == "incremental" else 0.7
        accs = []
        for d in drives:
            low = downsample(d.trajectory, 90.0)
            result = matcher.match(low)
            accs.append(route_accuracy(city, d.route, result.route))
        assert np.mean(accs) > floor, f"{name} mean acc {np.mean(accs):.3f} at 90 s"


class TestMatcherDegradation:
    @pytest.mark.parametrize("name,factory", ALL_MATCHERS)
    def test_accuracy_decreases_with_interval(self, city, drives, name, factory):
        matcher = factory(city)

        def mean_acc(interval):
            accs = []
            for d in drives:
                q = downsample(d.trajectory, interval) if interval else d.trajectory
                accs.append(route_accuracy(city, d.route, matcher.match(q).route))
            return float(np.mean(accs))

        # Accuracy at high rate should not be (much) worse than at 5 min.
        margin = 0.2 if name == "incremental" else 0.05
        assert mean_acc(None) >= mean_acc(300.0) - margin


class TestSpecificBehaviours:
    def test_hmm_outlier_resilience(self, city, drives):
        """One wild GPS outlier shouldn't destroy the HMM route."""
        from repro.geo.point import Point
        from repro.trajectory.model import GPSPoint, Trajectory

        d = drives[0]
        pts = list(d.trajectory.points)
        mid = len(pts) // 2
        outlier = GPSPoint(Point(pts[mid].x + 120.0, pts[mid].y + 120.0), pts[mid].t)
        noisy = Trajectory(1, tuple(pts[:mid] + [outlier] + pts[mid + 1 :]))
        acc = route_accuracy(city, d.route, HMMMatcher(city).match(noisy).route)
        assert acc > 0.8

    def test_st_temporal_term_in_unit_range(self, city):
        matcher = STMatcher(city)
        from repro.mapmatching.base import find_candidates
        from repro.geo.point import Point

        a = find_candidates(matcher._engine, city.node(0).point, 100.0)[0]
        b = find_candidates(matcher._engine, city.node(1).point, 100.0)[0]
        f_t = matcher._temporal(a, b, d_route=500.0, dt=60.0)
        assert 0.0 <= f_t <= 1.0 + 1e-9

    def test_incremental_config_validation_defaults(self):
        cfg = IncrementalConfig()
        assert cfg.radius > 0 and cfg.max_candidates > 0

    def test_configs_are_frozen(self):
        for cfg in (IncrementalConfig(), STMatchingConfig(), IVMMConfig(), HMMConfig()):
            with pytest.raises(Exception):
                cfg.radius = 1.0  # type: ignore[misc]


class TestGeometricBaseline:
    def test_recovers_easy_route(self, city, drives):
        from repro.mapmatching import GeometricMatcher

        matcher = GeometricMatcher(city)
        d = drives[0]
        result = matcher.match(d.trajectory)
        assert result.route.is_connected(city)
        from repro.eval.metrics import precision_recall

        __, recall = precision_recall(city, d.route, result.route)
        assert recall > 0.85

    def test_weaker_than_hmm_at_low_rate(self, city, drives):
        """The naive baseline must not beat the HMM on sparse noisy input —
        if it does, the smarter matchers buy nothing on this data."""
        from repro.mapmatching import GeometricMatcher, HMMMatcher

        geo_acc, hmm_acc = [], []
        for d in drives:
            low = downsample(d.trajectory, 120.0)
            geo_acc.append(
                route_accuracy(city, d.route, GeometricMatcher(city).match(low).route)
            )
            hmm_acc.append(
                route_accuracy(city, d.route, HMMMatcher(city).match(low).route)
            )
        assert np.mean(hmm_acc) >= np.mean(geo_acc) - 0.05
