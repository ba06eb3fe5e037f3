"""Tests for the routing engine: ALT landmarks, bounded caches and batch
inference.

The engine is a pure accelerator — every test here is ultimately an
equivalence test against the unaccelerated code path.
"""

import math

import numpy as np
import pytest

from repro.core.system import HRIS, HRISConfig
from repro.roadnet.cache import CacheStats, LRUCache
from repro.roadnet.engine import EngineConfig, RoutingEngine
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.roadnet.shortest_path import (
    LandmarkIndex,
    astar,
    combined_heuristic,
    dijkstra,
    dijkstra_all,
    shortest_route_between_segments,
)
from repro.roadnet.table_oracle import DistanceTableOracle
from repro.trajectory.resample import downsample
from tests.reference_oracle import PerPairOracle


@pytest.fixture(scope="module")
def cities():
    """Three random grid cities — irregular enough to exercise ties."""
    nets = []
    for seed in (3, 11, 42):
        rng = np.random.default_rng(seed)
        nets.append(grid_city(GridCityConfig(nx=7, ny=7, drop_fraction=0.15), rng))
    return nets


def _node_ids(net):
    return sorted(n.node_id for n in net.nodes())


class TestLandmarkIndex:
    def test_build_is_deterministic(self, cities):
        net = cities[0]
        a = LandmarkIndex.build(net, n_landmarks=6)
        b = LandmarkIndex.build(net, n_landmarks=6)
        assert a.landmarks == b.landmarks
        assert len(a) == 6

    def test_lower_bound_admissible(self, cities):
        for net in cities:
            index = LandmarkIndex.build(net, n_landmarks=6)
            nodes = _node_ids(net)
            rng = np.random.default_rng(7)
            for source in rng.choice(nodes, size=5, replace=False):
                source = int(source)
                true = dijkstra_all(net, source)
                for target in nodes:
                    d = true.get(target)
                    if d is None:
                        continue
                    assert index.lower_bound(source, target) <= d + 1e-6

    def test_alt_astar_matches_dijkstra(self, cities):
        for net in cities:
            index = LandmarkIndex.build(net, n_landmarks=6)
            nodes = _node_ids(net)
            rng = np.random.default_rng(19)
            pairs = [
                (int(s), int(t))
                for s, t in rng.choice(nodes, size=(25, 2))
            ]
            for s, t in pairs:
                d_ref, path_ref = dijkstra(net, s, t)
                d_alt, path_alt = astar(
                    net, s, t, heuristic=combined_heuristic(net, t, index)
                )
                if math.isinf(d_ref):
                    assert math.isinf(d_alt)
                    continue
                assert d_alt == pytest.approx(d_ref, abs=1e-6)
                # The canonical tie-break makes the path a function of the
                # graph alone, regardless of the heuristic.
                assert path_alt == path_ref


class TestLRUCache:
    def test_eviction_at_capacity(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts "b", the least recent
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_stats_counters(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_maxsize_zero_disables(self):
        cache = LRUCache(maxsize=0)
        calls = []
        for __ in range(3):
            cache.get_or_compute("k", lambda: calls.append(1) or len(calls))
        assert len(calls) == 3
        assert len(cache) == 0
        assert not cache.enabled

    def test_stats_delta(self):
        stats = CacheStats(hits=5, misses=3, evictions=1)
        earlier = CacheStats(hits=2, misses=1, evictions=0)
        d = stats.delta(earlier)
        assert (d.hits, d.misses, d.evictions) == (3, 2, 1)


class TestDistanceOracle:
    def test_bounded_sources_evict(self, cities):
        net = cities[0]
        nodes = _node_ids(net)
        oracle = DistanceTableOracle(net, max_rows=2)
        for source in nodes[:4]:
            oracle.distance(source, nodes[-1])
        assert oracle.stats.misses == 4
        assert oracle.stats.evictions == 2

    def test_evicted_source_recomputes_identically(self, cities):
        net = cities[0]
        nodes = _node_ids(net)
        bounded = DistanceTableOracle(net, max_rows=1)
        unbounded = DistanceTableOracle(net, max_rows=None)
        s1, s2, t = nodes[0], nodes[1], nodes[-1]
        first = bounded.distance(s1, t)
        bounded.distance(s2, t)  # evicts s1's row
        assert bounded.distance(s1, t) == first == unbounded.distance(s1, t)
        assert first == PerPairOracle(net).distance(s1, t)

    @pytest.mark.parametrize("cache_size", [2_048, 0], ids=["cached", "uncached"])
    def test_no_row_lookup_matches_reference(self, cities, cache_size):
        """A lookup whose source has no row sweeps one, under the engine's
        bound, whether or not ``oracle_cache_size`` lets the row stay."""
        net = cities[2]
        nodes = _node_ids(net)
        engine = RoutingEngine(
            net, HRISConfig(oracle_cache_size=cache_size).engine_config()
        )
        bound = 900.0
        oracle = engine.transition_oracle(bound)
        reference = PerPairOracle(net, max_distance=bound)
        pairs = [(s, t) for s in nodes[::6] for t in nodes[2::9]]
        for s, t in pairs:
            assert oracle.distance(s, t) == reference.distance(s, t)
        assert any(math.isinf(reference.distance(s, t)) for s, t in pairs)
        stats = engine.stats()
        assert stats.oracle.lookups == len(pairs)
        sources = len(nodes[::6])
        assert stats.oracle.misses == (len(pairs) if cache_size == 0 else sources)
        assert stats.sweeps > 0


class TestRoutingEngine:
    def test_routes_match_plain_function(self, cities):
        net = cities[1]
        engine = RoutingEngine(net, EngineConfig(n_landmarks=4))
        sids = sorted(s.segment_id for s in net.segments())
        rng = np.random.default_rng(5)
        for a, b in rng.choice(sids, size=(20, 2)):
            gap, route = engine.shortest_route_between_segments(int(a), int(b))
            gap_ref, route_ref = shortest_route_between_segments(net, int(a), int(b))
            assert gap == pytest.approx(gap_ref)
            assert route.segment_ids == route_ref.segment_ids

    def test_candidate_cache_hits_and_copies(self, cities):
        net = cities[1]
        engine = RoutingEngine(net, EngineConfig())
        p = net.node(_node_ids(net)[0]).point
        first = engine.candidate_edges(p, 60.0)
        second = engine.candidate_edges(p, 60.0)
        assert [c.segment.segment_id for c in first] == [
            c.segment.segment_id for c in second
        ]
        assert first is not second  # callers may mutate their copy
        assert engine.stats().candidate_cache.hits >= 1
        assert [c.segment.segment_id for c in first] == [
            c.segment.segment_id for c in net.candidate_edges(p, 60.0)
        ]


@pytest.fixture(scope="module")
def batch_setup(corridor_world):
    hris = HRIS(corridor_world.network, corridor_world.archive, HRISConfig())
    queries = [
        downsample(corridor_world.query, interval)
        for interval in (120.0, 180.0, 240.0)
    ]
    return hris, [q for q in queries if len(q) >= 2]


def _route_keys(results):
    return [
        [(g.route.segment_ids, g.log_score) for g in routes] for routes in results
    ]


class TestBatchInference:
    def test_workers_one_equals_sequential(self, batch_setup):
        hris, queries = batch_setup
        sequential = [hris.infer_routes(q) for q in queries]
        batch = hris.infer_routes_batch(queries, workers=1)
        assert _route_keys(batch) == _route_keys(sequential)

    def test_forked_pool_equals_sequential(self, batch_setup):
        hris, queries = batch_setup
        try:
            import multiprocessing

            multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("fork start method unavailable")
        sequential = [hris.infer_routes(q) for q in queries]
        batch = hris.infer_routes_batch(
            queries, workers=2, use_processes=True
        )
        assert _route_keys(batch) == _route_keys(sequential)

    def test_empty_batch(self, batch_setup):
        hris, __ = batch_setup
        assert hris.infer_routes_batch([], workers=4) == []


class TestEngineEquivalence:
    def test_engine_matches_seed_configuration(self, corridor_world):
        """The tentpole claim: caches and landmarks change nothing."""
        seed_cfg = HRISConfig(
            n_landmarks=0,
            route_cache_size=0,
            candidate_cache_size=0,
            support_cache_size=0,
        )
        h_seed = HRIS(corridor_world.network, corridor_world.archive, seed_cfg)
        h_eng = HRIS(corridor_world.network, corridor_world.archive, HRISConfig())
        query = downsample(corridor_world.query, 180.0)
        assert _route_keys([h_eng.infer_routes(query)]) == _route_keys(
            [h_seed.infer_routes(query)]
        )

    def test_details_carry_engine_stats(self, corridor_world):
        hris = HRIS(corridor_world.network, corridor_world.archive, HRISConfig())
        query = downsample(corridor_world.query, 180.0)
        __, detail = hris.infer_routes_with_details(query, 2)
        assert detail.engine is not None
        assert detail.engine.searches >= 0
        combined = detail.engine.as_dict()
        assert "route_cache_hits" in combined and "oracle_misses" in combined
