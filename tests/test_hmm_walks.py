"""Prefix-trie decoding of many walks equals decoding each walk alone.

``HMMMatcher.match_walks`` threads walks through a prefix trie so shared
prefixes get their candidate layers and Viterbi columns once.  The
reference here is the per-walk Viterbi decoder it replaced
(:func:`reference_match`), reading its transition distances from the
per-pair reference oracle's full tables; on random walk sets sharing
prefixes, with and without a routing engine, every walk must get the
reference's route and chosen candidates exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.point import Point
from repro.mapmatching import HMMConfig, HMMMatcher
from repro.mapmatching.base import MatchResult, find_candidates, stitch_route
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.trajectory.model import GPSPoint, Trajectory
from tests.reference_oracle import PerPairOracle


def reference_match(matcher: HMMMatcher, points) -> MatchResult:
    """Per-walk Viterbi: one candidate layer and column per point."""
    cfg = matcher._config
    n = len(points)
    layers = [
        find_candidates(matcher._engine, p, cfg.radius, cfg.max_candidates)
        for p in points
    ]

    def log_emission(c):
        z = c.distance / cfg.sigma
        return -0.5 * z * z

    score = [[log_emission(c) for c in layers[0]]]
    parent = [[-1] * len(layers[0])]

    inf = math.inf
    beta = cfg.beta
    oracle_prepare = PerPairOracle(matcher._engine.network, cfg.max_route_distance).prepare
    for i in range(1, n):
        d_euclid = points[i].distance_to(points[i - 1])
        prev_score = score[i - 1]
        tables = oracle_prepare(
            (
                c.segment.end
                for k, c in enumerate(layers[i - 1])
                if prev_score[k] != -inf
            ),
            (c.segment.start for c in layers[i]),
        )
        prev_info = []
        for k, prev_cand in enumerate(layers[i - 1]):
            sc = score[i - 1][k]
            if sc == -inf:
                prev_info.append(None)
                continue
            seg = prev_cand.segment
            off = prev_cand.projection.offset
            prev_info.append(
                (sc, seg.segment_id, off, seg.length - off, tables[seg.end])
            )
        cur = []
        par = []
        for cand in layers[i]:
            emit = log_emission(cand)
            cand_seg = cand.segment
            cand_id = cand_seg.segment_id
            cand_off = cand.projection.offset
            cand_start = cand_seg.start
            best_val = -inf
            best_k = -1
            for k, info in enumerate(prev_info):
                if info is None:
                    continue
                sc, prev_id, prev_off, tail, table = info
                if prev_id == cand_id and cand_off >= prev_off:
                    d_route = cand_off - prev_off
                else:
                    via = table.get(cand_start, inf)
                    if via == inf:
                        continue
                    d_route = tail + via + cand_off
                val = sc + -abs(d_route - d_euclid) / beta + emit
                if val > best_val:
                    best_val = val
                    best_k = k
            cur.append(best_val)
            par.append(best_k)
        if all(v == -math.inf for v in cur):
            cur = [log_emission(c) for c in layers[i]]
            par = [-1] * len(cur)
        score.append(cur)
        parent.append(par)

    chosen = [None] * n
    if layers[-1]:
        j = max(range(len(score[-1])), key=lambda idx: score[-1][idx])
        for i in range(n - 1, -1, -1):
            if j < 0 or not layers[i]:
                if layers[i]:
                    j = max(range(len(score[i])), key=lambda idx: score[i][idx])
                    chosen[i] = layers[i][j]
                    j = parent[i][j]
                continue
            chosen[i] = layers[i][j]
            j = parent[i][j]

    segments = [c.segment.segment_id for c in chosen if c is not None]
    route = stitch_route(matcher._engine, segments)
    return MatchResult(route=route, matched=tuple(chosen))


@pytest.fixture(scope="module")
def city():
    return grid_city(
        GridCityConfig(nx=7, ny=7, drop_fraction=0.1, one_way_fraction=0.3),
        np.random.default_rng(41),
    )


def make_matcher(city, kind, config):
    engine = RoutingEngine(city) if kind == "engine" else None
    return HMMMatcher(city, config, engine=engine)


@st.composite
def walk_sets(draw, box):
    """Walks over a small point pool, each reusing a prefix of an earlier
    walk: shared prefixes, repeated and duplicate points, duplicate walks
    and one-point walks all occur."""
    coord = st.tuples(
        st.floats(box.min_x - 150.0, box.max_x + 150.0),
        st.floats(box.min_y - 150.0, box.max_y + 150.0),
    )
    pool = [Point(x, y) for x, y in draw(st.lists(coord, min_size=2, max_size=8))]
    pick = st.integers(0, len(pool) - 1)
    walks = []
    for __ in range(draw(st.integers(1, 6))):
        prefix = []
        if walks:
            base = walks[draw(st.integers(0, len(walks) - 1))]
            prefix = base[: draw(st.integers(0, len(base)))]
        tail = [pool[i] for i in draw(st.lists(pick, max_size=5))]
        walk = prefix + tail
        if walk:
            walks.append(walk)
    return walks


@pytest.mark.parametrize("kind", ["none", "engine"])
@pytest.mark.parametrize("bound", [50_000.0, 600.0], ids=["open", "tight"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trie_matches_per_walk_reference(city, kind, bound, data):
    walks = data.draw(walk_sets(city.bbox()))
    config = HMMConfig(radius=100.0, max_candidates=4, max_route_distance=bound)
    got = make_matcher(city, kind, config).match_walks(walks)
    reference = make_matcher(city, kind, config)
    assert len(got) == len(walks)
    for walk, result in zip(walks, got):
        expected = reference_match(reference, walk)
        assert result.route.segment_ids == expected.route.segment_ids
        assert result.matched == expected.matched


def test_match_is_the_one_walk_case(city):
    points = [Point(100.0 + 180.0 * i, 90.0 + 60.0 * i) for i in range(6)]
    trajectory = Trajectory(
        0, tuple(GPSPoint(p, float(i)) for i, p in enumerate(points))
    )
    matcher = HMMMatcher(city)
    assert matcher.match(trajectory) == matcher.match_walks([points])[0]
    assert matcher.match(trajectory) == reference_match(HMMMatcher(city), points)
