"""Tests for the routing engine: ALT landmarks, bounded caches and batch
inference.

The engine is a pure accelerator — every test here is ultimately an
equivalence test against the unaccelerated code path.
"""

import math

import numpy as np
import pytest

from repro.core.hybrid import HybridConfig, HybridInference
from repro.core.nni import NearestNeighborInference
from repro.core.reference import ReferenceSearch
from repro.core.system import HRIS, HRISConfig
from repro.core.traverse_graph import TraverseGraphInference
from repro.geo.point import Point
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


def plain_nearest_segments(network, p, k):
    """The k nearest segments by a doubling radius search straight over
    ``network.candidate_edges`` — the engine's search without its cache."""
    if k <= 0 or not network.num_segments:
        return []
    box = network.bbox()
    limit = box.min_distance_to_point(p) + math.hypot(box.width, box.height) + 1.0
    radius = 50.0
    while True:
        hits = network.candidate_edges(p, radius)
        if len(hits) >= k or radius > limit:
            return hits[:k]
        radius *= 2.0


def plain_endpoint_route(network, qi, qi1):
    """Shortest path between the nearest segments of two points, with no
    engine: plain A* from the nearest segment of ``qi`` to that of ``qi1``."""
    src = plain_nearest_segments(network, qi, 1)
    dst = plain_nearest_segments(network, qi1, 1)
    if not src or not dst:
        return None
    gap, route = shortest_route_between_segments(
        network, src[0].segment.segment_id, dst[0].segment.segment_id
    )
    return None if math.isinf(gap) else route


def _probe_points(net, n, seed):
    """Points scattered over the network's box and a margin around it."""
    box = net.bbox()
    rng = np.random.default_rng(seed)
    xs = rng.uniform(box.min_x - 400.0, box.max_x + 400.0, n)
    ys = rng.uniform(box.min_y - 400.0, box.max_y + 400.0, n)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


class TestNearestSegments:
    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_matches_plain_doubling_search(self, cities, k):
        for seed, net in enumerate(cities):
            engine = RoutingEngine(net)
            points = _probe_points(net, 40, seed)
            # Twice through one engine: the second pass reads cached probes.
            for p in points + points:
                assert engine.nearest_segments(p, k) == plain_nearest_segments(
                    net, p, k
                )

    def test_k_above_hit_count_returns_every_segment(self, cities):
        net = cities[0]
        engine = RoutingEngine(net)
        p = net.node(_node_ids(net)[0]).point
        got = engine.nearest_segments(p, net.num_segments + 5)
        assert got == plain_nearest_segments(net, p, net.num_segments + 5)
        assert len(got) == net.num_segments

    def test_k_zero_is_empty(self, cities):
        engine = RoutingEngine(cities[0])
        assert engine.nearest_segments(Point(0.0, 0.0), 0) == []
        assert engine.stats().candidate_cache.lookups == 0

    def test_point_outside_the_network_box(self, cities):
        net = cities[1]
        engine = RoutingEngine(net)
        box = net.bbox()
        for p in (
            Point(box.min_x - 5_000.0, box.min_y - 5_000.0),
            Point(box.max_x + 12_345.0, (box.min_y + box.max_y) / 2.0),
        ):
            for k in (1, 3):
                got = engine.nearest_segments(p, k)
                assert len(got) == k
                assert got == plain_nearest_segments(net, p, k)


class TestEndpointRoute:
    def test_matches_plain_route_on_connected_pairs(self, cities):
        for seed, net in enumerate(cities):
            engine = RoutingEngine(net)
            points = _probe_points(net, 24, 100 + seed)
            found = 0
            for qi, qi1 in zip(points, points[1:]):
                got = engine.endpoint_route(qi, qi1)
                want = plain_endpoint_route(net, qi, qi1)
                assert (got is None) == (want is None)
                if got is not None:
                    found += 1
                    assert got.segment_ids == want.segment_ids
            assert found > 0

    def test_islands_pair_is_none(self, islands):
        network, rows = islands
        (x0, y0, __), (x1, y1, __) = rows
        qi, qi1 = Point(x0, y0), Point(x1, y1)
        engine = RoutingEngine(network)
        assert plain_endpoint_route(network, qi, qi1) is None
        assert engine.endpoint_route(qi, qi1) is None
        # Each island on its own still routes, and both ways agree.
        same_island = (
            (Point(100.0, 1.0), Point(400.0, -1.0)),
            (Point(5400.0, 1.0), qi1),
        )
        for a, b in same_island:
            got = engine.endpoint_route(a, b)
            assert got is not None
            assert got.segment_ids == plain_endpoint_route(network, a, b).segment_ids


@pytest.fixture(scope="module")
def corridor_pairs(corridor_world):
    """A warm HRIS and its query's pairs with their references."""
    hris = HRIS(corridor_world.network, corridor_world.archive, HRISConfig())
    query = downsample(corridor_world.query, 180.0)
    hris.infer_routes(query)  # warm the shared engine's caches
    search = ReferenceSearch(
        corridor_world.archive,
        corridor_world.network,
        hris.config.reference_config(),
    )
    pairs = []
    for i in range(len(query) - 1):
        qi, qi1 = query[i], query[i + 1]
        pairs.append((qi.point, qi1.point, search.search(qi, qi1)))
    return hris, pairs


class TestStandaloneComponents:
    """A component built without an engine builds its own; its answers
    equal those of the same component sharing a warm HRIS engine."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda net, cfg, eng: TraverseGraphInference(
                net, cfg.tgi_config(), engine=eng
            ),
            lambda net, cfg, eng: NearestNeighborInference(
                net, cfg.nni_config(), engine=eng
            ),
            lambda net, cfg, eng: HybridInference(
                net,
                HybridConfig(cfg.tau, cfg.tgi_config(), cfg.nni_config()),
                engine=eng,
            ),
        ],
        ids=["tgi", "nni", "hybrid"],
    )
    def test_local_inference(self, corridor_world, corridor_pairs, factory):
        hris, pairs = corridor_pairs
        net, cfg = corridor_world.network, hris.config
        alone = factory(net, cfg, None)
        shared = factory(net, cfg, hris.engine)
        routed = 0
        for qi, qi1, references in pairs:
            got, got_info = alone.infer(qi, qi1, references)
            want, want_info = shared.infer(qi, qi1, references)
            assert [r.segment_ids for r in got] == [r.segment_ids for r in want]
            assert got_info == want_info  # stats, or the hybrid's method
            routed += bool(got)
        assert routed > 0

    @pytest.mark.parametrize(
        "factory",
        [
            lambda net, eng: HMMMatcher(net, HMMConfig(), engine=eng),
            lambda net, eng: IVMMMatcher(net, IVMMConfig(), engine=eng),
            lambda net, eng: STMatcher(net, STMatchingConfig(), engine=eng),
            lambda net, eng: IncrementalMatcher(net, IncrementalConfig(), engine=eng),
        ],
        ids=["hmm", "ivmm", "st", "incremental"],
    )
    def test_matchers(self, corridor_world, corridor_pairs, factory):
        hris, __ = corridor_pairs
        net = corridor_world.network
        query = downsample(corridor_world.query, 60.0)
        got = factory(net, None).match(query)
        want = factory(net, hris.engine).match(query)
        assert got.route.segment_ids == want.route.segment_ids
        assert got.matched == want.matched
        assert len(got.route) > 0


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
