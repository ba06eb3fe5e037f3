"""Unit tests for shared map-matching infrastructure."""

import math

import pytest

from repro.geo.point import Point
from repro.mapmatching.base import (
    find_candidates,
    gps_probability,
    stitch_route,
)
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import manhattan_line


@pytest.fixture(scope="module")
def line():
    return manhattan_line(n_nodes=6, spacing=100.0)


@pytest.fixture(scope="module")
def engine(line):
    return RoutingEngine(line)


class TestGpsProbability:
    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gps_probability(10.0, 0.0)

    def test_peak_at_zero(self):
        assert gps_probability(0.0, 20.0) > gps_probability(5.0, 20.0)

    def test_monotone_decreasing(self):
        values = [gps_probability(d, 20.0) for d in (0, 10, 20, 40, 80)]
        assert values == sorted(values, reverse=True)

    def test_gaussian_formula(self):
        sigma = 20.0
        expected = 1.0 / (math.sqrt(2 * math.pi) * sigma)
        assert math.isclose(gps_probability(0.0, sigma), expected)


class TestFindCandidates:
    def test_within_radius(self, engine):
        cands = find_candidates(engine, Point(150, 5), 10.0)
        assert cands
        assert all(c.distance <= 10.0 for c in cands)

    def test_fallback_when_radius_empty(self, engine):
        cands = find_candidates(engine, Point(150, 5000), 10.0, max_candidates=3)
        assert cands  # the fallback kicks in
        assert len(cands) <= 3

    def test_max_candidates_cap(self, engine):
        cands = find_candidates(engine, Point(150, 0), 1000.0, max_candidates=2)
        assert len(cands) == 2

    def test_nearest_first(self, engine):
        cands = find_candidates(engine, Point(150, 5), 1000.0)
        dists = [c.distance for c in cands]
        assert dists == sorted(dists)


class TestStitchRoute:
    def test_empty(self, engine):
        assert stitch_route(engine, []).segment_ids == ()

    def test_single(self, engine):
        assert stitch_route(engine, [0]).segment_ids == (0,)

    def test_collapses_duplicates(self, engine):
        assert stitch_route(engine, [0, 0, 0]).segment_ids == (0,)

    def test_adjacent_pass_through(self, line, engine):
        r = stitch_route(engine, [0, 2])
        assert r.segment_ids == (0, 2)
        assert r.is_connected(line)

    def test_bridges_gap(self, line, engine):
        r = stitch_route(engine, [0, 6])
        assert r.is_connected(line)
        assert r.first == 0
        assert r.last == 6
        assert len(r) == 4  # 0, 2, 4, 6

    def test_result_always_deduped(self, engine):
        r = stitch_route(engine, [0, 2, 2, 4])
        assert r.segment_ids == (0, 2, 4)
