"""Unit tests for repro.roadnet.network."""

import math

import pytest

from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.network import RoadNetwork, RoadNode, RoadSegment


def two_way_square():
    """A unit square block with bidirectional streets, 100 m sides."""
    net = RoadNetwork()
    corners = [Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)]
    for i, p in enumerate(corners):
        net.add_node(RoadNode(i, p))
    sid = 0
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        pa, pb = corners[a], corners[b]
        net.add_segment(RoadSegment.build(sid, a, b, [pa, pb], 10.0))
        sid += 1
        net.add_segment(RoadSegment.build(sid, b, a, [pb, pa], 10.0))
        sid += 1
    return net


class TestSegment:
    def test_build_derives_length(self):
        seg = RoadSegment.build(0, 0, 1, [Point(0, 0), Point(3, 0), Point(3, 4)], 10.0)
        assert seg.length == 7.0

    def test_build_requires_two_points(self):
        with pytest.raises(ValueError):
            RoadSegment.build(0, 0, 1, [Point(0, 0)], 10.0)

    def test_build_requires_positive_speed(self):
        with pytest.raises(ValueError):
            RoadSegment.build(0, 0, 1, [Point(0, 0), Point(1, 0)], 0.0)

    def test_distance_to_point(self):
        seg = RoadSegment.build(0, 0, 1, [Point(0, 0), Point(10, 0)], 10.0)
        assert seg.distance_to_point(Point(5, 3)) == 3.0

    def test_travel_time(self):
        seg = RoadSegment.build(0, 0, 1, [Point(0, 0), Point(100, 0)], 20.0)
        assert seg.travel_time == 5.0

    def test_point_at(self):
        seg = RoadSegment.build(0, 0, 1, [Point(0, 0), Point(10, 0)], 10.0)
        assert seg.point_at(4.0) == Point(4, 0)


class TestNetworkTopology:
    def test_counts(self):
        net = two_way_square()
        assert net.num_nodes == 4
        assert net.num_segments == 8

    def test_duplicate_node_raises(self):
        net = two_way_square()
        with pytest.raises(ValueError):
            net.add_node(RoadNode(0, Point(0, 0)))

    def test_duplicate_segment_raises(self):
        net = two_way_square()
        seg = RoadSegment.build(0, 0, 1, [Point(0, 0), Point(1, 0)], 10.0)
        with pytest.raises(ValueError):
            net.add_segment(seg)

    def test_unknown_node_raises(self):
        net = two_way_square()
        seg = RoadSegment.build(99, 0, 77, [Point(0, 0), Point(1, 0)], 10.0)
        with pytest.raises(ValueError):
            net.add_segment(seg)

    def test_out_in_segments(self):
        net = two_way_square()
        # Each corner has two outgoing and two incoming segments.
        for node in range(4):
            assert len(net.out_segments(node)) == 2
            assert len(net.in_segments(node)) == 2

    def test_successors_follow_connectivity(self):
        net = two_way_square()
        for seg in net.segments():
            for succ in net.successors(seg.segment_id):
                assert net.are_connected(seg.segment_id, succ)

    def test_predecessors_inverse_of_successors(self):
        net = two_way_square()
        for seg in net.segments():
            for succ in net.successors(seg.segment_id):
                assert seg.segment_id in net.predecessors(succ)

    def test_reverse_of(self):
        net = two_way_square()
        rev = net.reverse_of(0)
        assert rev is not None
        a, b = net.segment(0), net.segment(rev)
        assert (a.start, a.end) == (b.end, b.start)

    def test_reverse_of_one_way_is_none(self):
        net = RoadNetwork()
        net.add_node(RoadNode(0, Point(0, 0)))
        net.add_node(RoadNode(1, Point(100, 0)))
        net.add_segment(
            RoadSegment.build(0, 0, 1, [Point(0, 0), Point(100, 0)], 10.0)
        )
        assert net.reverse_of(0) is None

    def test_max_speed(self):
        net = two_way_square()
        assert net.max_speed == 10.0

    def test_bbox(self):
        b = two_way_square().bbox()
        assert (b.min_x, b.min_y, b.max_x, b.max_y) == (0, 0, 100, 100)

    def test_bbox_is_built_once(self):
        net = two_way_square()
        assert net.bbox() is net.bbox()
        net.add_segment(RoadSegment.build(99, 0, 2, [Point(0, 0), Point(100, 100)], 10.0))
        assert net.bbox() == BBox.from_points([n.point for n in net.nodes()])

    def test_node_added_after_a_query_widens_bbox(self):
        net = two_way_square()
        RoutingEngine(net).nearest_segments(Point(50, -200), 1)
        net.add_node(RoadNode(4, Point(-50, 300)))
        b = net.bbox()
        assert (b.min_x, b.min_y, b.max_x, b.max_y) == (-50, 0, 100, 300)
        assert b == BBox.from_points([n.point for n in net.nodes()])


class TestGeometricQueries:
    def test_candidate_edges_radius(self):
        net = two_way_square()
        # Point near the bottom street: both directions are candidates.
        cands = net.candidate_edges(Point(50, 5), 10.0)
        assert len(cands) == 2
        assert all(c.distance == 5.0 for c in cands)

    def test_candidate_edges_sorted_by_distance(self):
        net = two_way_square()
        cands = net.candidate_edges(Point(50, 20), 200.0)
        dists = [c.distance for c in cands]
        assert dists == sorted(dists)

    def test_candidate_edges_empty_outside(self):
        net = two_way_square()
        assert net.candidate_edges(Point(50, 50), 10.0) == []

    def test_candidate_edges_after_mutation(self):
        # The lazy index must invalidate on mutation.
        net = two_way_square()
        assert len(net.candidate_edges(Point(50, 50), 10.0)) == 0
        net.add_node(RoadNode(4, Point(50, 40)))
        net.add_node(RoadNode(5, Point(50, 60)))
        net.add_segment(
            RoadSegment.build(100, 4, 5, [Point(50, 40), Point(50, 60)], 10.0)
        )
        assert len(net.candidate_edges(Point(50, 50), 10.0)) == 1

    def test_nearest_segments(self):
        net = two_way_square()
        got = RoutingEngine(net).nearest_segments(Point(50, -200), 2)
        assert len(got) == 2
        assert {c.segment.segment_id for c in got} == {0, 1}

    def test_nearest_segments_k_zero(self):
        assert RoutingEngine(two_way_square()).nearest_segments(Point(0, 0), 0) == []

    def test_nearest_node(self):
        net = two_way_square()
        assert net.nearest_node(Point(95, 95)).node_id == 2

    def test_projection_on_candidate(self):
        net = two_way_square()
        cand = net.candidate_edges(Point(30, 2), 10.0)[0]
        assert math.isclose(cand.projection.point.x, 30.0, abs_tol=1e-9)
