"""Unit and property tests for repro.roadnet.shortest_path.

The routing engine answers every point-to-point query with ALT A*, and
the identity gates rest on that search being a drop-in for Dijkstra — not
merely "a shortest path" but the *same* path (canonical min-id tie-break)
with the *same* float distance.  ``TestDistanceIdentity`` and
``TestCanonicalTieBreak`` pin both, on structured grids and on randomly
generated networks including unreachable pairs, zero-length cycles and
parallel segments.
"""

import math
import random

import numpy as np
import pytest

from repro.geo.point import Point
from repro.roadnet.generators import GridCityConfig, grid_city, manhattan_line
from repro.roadnet.network import RoadNetwork, RoadNode, RoadSegment
from repro.roadnet.shortest_path import (
    LandmarkIndex,
    SearchStats,
    astar,
    combined_heuristic,
    dijkstra,
    dijkstra_all,
    node_path_to_route,
    shortest_route_between_nodes,
    shortest_route_between_segments,
)
from repro.roadnet.table_oracle import DistanceTableOracle
from tests.reference_oracle import PerPairOracle


def alt_astar(network, source, target, landmarks=None, stats=None):
    """The engine's point-to-point search: A* on max(euclidean, ALT)."""
    return astar(
        network,
        source,
        target,
        heuristic=combined_heuristic(network, target, landmarks),
        stats=stats,
    )


def random_network(seed: int, n: int = 30, extra_edges: int = 50) -> RoadNetwork:
    """A random directed network: scattered nodes, random directed edges.

    Deliberately *not* strongly connected — plenty of unreachable pairs —
    and seeded so failures reproduce.
    """
    rng = random.Random(seed)
    nodes = [
        RoadNode(i, Point(rng.uniform(0, 5_000), rng.uniform(0, 5_000)))
        for i in range(n)
    ]
    net = RoadNetwork()
    for node in nodes:
        net.add_node(node)
    sid = 0
    seen = set()
    for __ in range(extra_edges):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        net.add_segment(
            RoadSegment.build(
                sid, a, b, [nodes[a].point, nodes[b].point], speed_limit=13.9
            )
        )
        sid += 1
    return net


@pytest.fixture(scope="module")
def city():
    return grid_city(GridCityConfig(nx=8, ny=8, drop_fraction=0.1), np.random.default_rng(3))


@pytest.fixture(scope="module")
def line():
    return manhattan_line(n_nodes=6, spacing=100.0)


@pytest.fixture(scope="module")
def oneway_city():
    return grid_city(
        GridCityConfig(nx=8, ny=8, drop_fraction=0.1, one_way_fraction=0.15),
        np.random.default_rng(11),
    )


@pytest.fixture(scope="module")
def oneway_landmarks(oneway_city):
    return LandmarkIndex.build(oneway_city, 6)


class TestDijkstra:
    def test_source_equals_target(self, line):
        assert dijkstra(line, 2, 2) == (0.0, [2])

    def test_simple_chain(self, line):
        d, path = dijkstra(line, 0, 5)
        assert d == 500.0
        assert path == [0, 1, 2, 3, 4, 5]

    def test_unreachable(self):
        net = manhattan_line(3)
        # Add an isolated node.
        from repro.geo.point import Point
        from repro.roadnet.network import RoadNode

        net.add_node(RoadNode(99, Point(0, 999)))
        d, path = dijkstra(net, 0, 99)
        assert math.isinf(d)
        assert path == []

    def test_max_distance_cutoff(self, line):
        d, path = dijkstra(line, 0, 5, max_distance=200.0)
        assert math.isinf(d)

    def test_dijkstra_all_contains_source(self, line):
        table = dijkstra_all(line, 0)
        assert table[0] == 0.0
        assert table[5] == 500.0

    def test_dijkstra_all_bounded(self, line):
        table = dijkstra_all(line, 0, max_distance=250.0)
        assert 5 not in table
        assert table[2] == 200.0


class TestAStar:
    def test_matches_dijkstra_distances(self, city):
        rng = np.random.default_rng(9)
        nodes = [n.node_id for n in city.nodes()]
        for __ in range(25):
            a, b = rng.choice(nodes, size=2, replace=False)
            d1, __p = dijkstra(city, int(a), int(b))
            d2, __p = astar(city, int(a), int(b))
            assert math.isclose(d1, d2, rel_tol=1e-9, abs_tol=1e-6)

    def test_path_length_consistent(self, city):
        d, path = astar(city, 0, 63)
        total = 0.0
        for u, v in zip(path, path[1:]):
            seg_len = min(
                city.segment(s).length
                for s in city.out_segments(u)
                if city.segment(s).end == v
            )
            total += seg_len
        assert math.isclose(total, d, rel_tol=1e-9)


class TestRouteConversion:
    def test_node_path_to_route(self, line):
        r = node_path_to_route(line, [0, 1, 2])
        assert r.is_connected(line)
        assert r.start_node(line) == 0
        assert r.end_node(line) == 2

    def test_non_adjacent_raises(self, line):
        with pytest.raises(ValueError):
            node_path_to_route(line, [0, 2])

    def test_shortest_route_between_nodes(self, city):
        d, route = shortest_route_between_nodes(city, 0, 63)
        assert route.is_connected(city)
        assert math.isclose(route.length(city), d, rel_tol=1e-9)

    def test_shortest_route_between_segments_same(self, line):
        gap, route = shortest_route_between_segments(line, 0, 0)
        assert gap == 0.0
        assert route.segment_ids == (0,)

    def test_shortest_route_between_segments_adjacent(self, line):
        gap, route = shortest_route_between_segments(line, 0, 2)
        assert gap == 0.0
        assert route.segment_ids == (0, 2)

    def test_shortest_route_between_segments_far(self, line):
        gap, route = shortest_route_between_segments(line, 0, 6)
        assert gap == 200.0
        assert route.first == 0
        assert route.last == 6
        assert route.is_connected(line)

    def test_route_reverse_needs_detour(self, line):
        # Going from eastbound segment 0 to westbound segment 1 requires
        # driving to the end of 0 and coming back.
        gap, route = shortest_route_between_segments(line, 0, 1)
        assert route.is_connected(line)
        assert route.first == 0
        assert route.last == 1


class TestDistanceIdentity:
    def test_matches_dijkstra_on_city(self, oneway_city, oneway_landmarks):
        rng = np.random.default_rng(5)
        nodes = [n.node_id for n in oneway_city.nodes()]
        for __ in range(60):
            a, b = (int(x) for x in rng.choice(nodes, size=2))
            d_uni, p_uni = dijkstra(oneway_city, a, b)
            d_plain, p_plain = alt_astar(oneway_city, a, b)
            d_alt, p_alt = alt_astar(oneway_city, a, b, oneway_landmarks)
            assert d_plain == d_uni
            assert d_alt == d_uni
            assert p_plain == p_uni
            assert p_alt == p_uni

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dijkstra_on_random_networks(self, seed):
        net = random_network(seed)
        landmarks = LandmarkIndex.build(net, 4)
        node_ids = [n.node_id for n in net.nodes()]
        rng = random.Random(seed + 100)
        disconnected = 0
        for __ in range(40):
            a, b = rng.choice(node_ids), rng.choice(node_ids)
            d_uni, p_uni = dijkstra(net, a, b)
            d_alt, p_alt = alt_astar(net, a, b, landmarks)
            if math.isinf(d_uni):
                disconnected += 1
                assert math.isinf(d_alt)
                assert p_alt == []
            else:
                assert d_alt == d_uni
                assert p_alt == p_uni
        # The generator must actually have produced unreachable pairs,
        # otherwise this test silently stopped covering them.
        assert disconnected > 0

    def test_source_equals_target(self, oneway_city, oneway_landmarks):
        assert alt_astar(oneway_city, 3, 3, oneway_landmarks) == (0.0, [3])

    def test_unreachable_isolated_node(self):
        net = manhattan_line(4)
        net.add_node(RoadNode(99, Point(0, 9_999)))
        d, path = alt_astar(net, 0, 99, LandmarkIndex.build(net, 2))
        assert math.isinf(d)
        assert path == []

    def test_bounded_distance_semantics(self, oneway_city):
        """The oracle's ``max_distance`` bounds the *returned* distance:
        reachable-but-far pairs read as inf."""
        rng = np.random.default_rng(6)
        nodes = [n.node_id for n in oneway_city.nodes()]
        oracle = DistanceTableOracle(oneway_city, max_distance=1_200.0)
        for __ in range(40):
            a, b = (int(x) for x in rng.choice(nodes, size=2))
            d_full, __p = dijkstra(oneway_city, a, b)
            d_bound = oracle.distance(a, b)
            if d_full <= 1_200.0:
                assert d_bound == d_full
            else:
                assert math.isinf(d_bound)


class TestCanonicalTieBreak:
    def test_identical_node_paths_on_tie_heavy_grid(self):
        """A jitter-free grid is packed with equal-length alternatives; ALT
        A* must still return Dijkstra's canonical (min-id predecessor)
        path, node for node."""
        net = grid_city(
            GridCityConfig(nx=6, ny=6, jitter=0.0, drop_fraction=0.0),
            np.random.default_rng(0),
        )
        landmarks = LandmarkIndex.build(net, 4)
        nodes = sorted(n.node_id for n in net.nodes())
        for a in nodes[::5]:
            for b in nodes[::7]:
                d_uni, p_uni = dijkstra(net, a, b)
                d_euclid, p_euclid = astar(net, a, b)
                d_alt, p_alt = alt_astar(net, a, b, landmarks)
                assert p_euclid == p_uni
                assert p_alt == p_uni
                assert d_alt == d_uni == d_euclid

    def test_zero_length_edges(self):
        """Coincident nodes joined by zero-length segments create zero-cost
        cycles; the search must terminate and stay canonical."""
        p0, p1 = Point(0, 0), Point(100, 0)
        net = RoadNetwork()
        net.add_node(RoadNode(0, p0))
        net.add_node(RoadNode(1, p0))  # coincident with node 0
        net.add_node(RoadNode(2, p1))
        net.add_segment(RoadSegment.build(0, 0, 1, [p0, p0], speed_limit=10.0))
        net.add_segment(RoadSegment.build(1, 1, 0, [p0, p0], speed_limit=10.0))
        net.add_segment(RoadSegment.build(2, 1, 2, [p0, p1], speed_limit=10.0))
        net.add_segment(RoadSegment.build(3, 2, 1, [p1, p0], speed_limit=10.0))
        landmarks = LandmarkIndex.build(net, 2)
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                d_uni, p_uni = dijkstra(net, a, b)
                d_alt, p_alt = alt_astar(net, a, b, landmarks)
                assert d_alt == d_uni
                assert p_alt == p_uni

    def test_parallel_segments_keep_cheapest(self):
        """Parallel edges of different lengths: the path must thread the
        cheapest, exactly as Dijkstra does."""
        p0, p1 = Point(0, 0), Point(100, 0)
        detour = Point(50, 80)
        net = RoadNetwork()
        net.add_node(RoadNode(0, p0))
        net.add_node(RoadNode(1, p1))
        net.add_segment(RoadSegment.build(0, 0, 1, [p0, detour, p1], speed_limit=10.0))
        net.add_segment(RoadSegment.build(1, 0, 1, [p0, p1], speed_limit=10.0))
        d_uni, p_uni = dijkstra(net, 0, 1)
        d_alt, p_alt = alt_astar(net, 0, 1, LandmarkIndex.build(net, 2))
        assert d_alt == d_uni == 100.0
        assert p_alt == p_uni == [0, 1]
        __, route = shortest_route_between_nodes(net, 0, 1)
        assert route.segment_ids == (1,)


class TestStats:
    def test_settles_fewer_nodes_than_dijkstra(self, oneway_city, oneway_landmarks):
        """The point of the landmarks: ALT A* must search a smaller volume
        than plain Dijkstra on long pairs."""
        nodes = sorted(n.node_id for n in oneway_city.nodes())
        pairs = [(nodes[0], nodes[-1]), (nodes[2], nodes[-3]), (nodes[5], nodes[-1])]
        s_uni, s_alt = SearchStats(), SearchStats()
        for a, b in pairs:
            dijkstra(oneway_city, a, b, stats=s_uni)
            alt_astar(oneway_city, a, b, oneway_landmarks, stats=s_alt)
        assert s_alt.settled < s_uni.settled


class TestDistanceOracle:
    """The table oracle's single-pair surface, diffed against full tables."""

    def test_cached_equals_direct(self, city):
        oracle = DistanceTableOracle(city)
        reference = PerPairOracle(city)
        rng = np.random.default_rng(4)
        nodes = [n.node_id for n in city.nodes()]
        for __ in range(15):
            a, b = (int(x) for x in rng.choice(nodes, size=2, replace=False))
            expected = reference.distance(a, b)
            assert oracle.distance(a, b) == expected
            # Second call reads the cached row and must agree.
            assert oracle.distance(a, b) == expected
        assert oracle.stats.hits == 15

    def test_bounded_oracle_returns_inf(self, line):
        oracle = DistanceTableOracle(line, max_distance=150.0)
        assert math.isinf(oracle.distance(0, 5))
        assert oracle.distance(0, 1) == 100.0

    def test_projection_distance_same_segment_forward(self, line):
        oracle = DistanceTableOracle(line)
        d = oracle.route_distance_between_projections(0, 10.0, 0, 60.0)
        assert d == 50.0

    def test_projection_distance_same_segment_backward(self, line):
        # Going backwards on a directed segment requires a detour (here via
        # the reverse twin): tail + via + offset.
        oracle = DistanceTableOracle(line)
        d = oracle.route_distance_between_projections(0, 60.0, 0, 10.0)
        assert d == PerPairOracle(line).route_distance_between_projections(
            0, 60.0, 0, 10.0
        )
        assert 0.0 < d < math.inf

    def test_projection_distance_between_segments(self, line):
        oracle = DistanceTableOracle(line)
        # Segment 0 is node0->node1, segment 2 is node1->node2.
        d = oracle.route_distance_between_projections(0, 50.0, 2, 25.0)
        assert d == 75.0

    def test_clear(self, city):
        oracle = DistanceTableOracle(city)
        expected = PerPairOracle(city).distance(0, 1)
        assert oracle.distance(0, 1) == expected
        oracle.clear()
        assert oracle.distance(0, 1) == expected
        assert oracle.stats.misses == 2
