"""Unit tests for the traverse-graph inference (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.reference import Reference, ReferenceSearch, ReferenceSearchConfig
from repro.core.traverse_graph import TGIConfig, TraverseGraphInference, _filter_detours
from repro.geo.point import Point
from repro.roadnet.generators import manhattan_line
from repro.roadnet.route import Route
from repro.trajectory.model import GPSPoint


def make_ref(points, ref_id=0, tid=0):
    return Reference(
        ref_id=ref_id, source_ids=(tid,), points=tuple(points), spliced=False
    )


@pytest.fixture()
def line():
    return manhattan_line(n_nodes=10, spacing=200.0)


def corridor_reference(ref_id=0, offset_y=8.0):
    return make_ref(
        [Point(i * 100.0, offset_y) for i in range(19)], ref_id=ref_id
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TGIConfig(lam=0)
        with pytest.raises(ValueError):
            TGIConfig(k_shortest=0)
        with pytest.raises(ValueError):
            TGIConfig(candidate_radius=0)

    def test_nan_candidate_radius_rejected(self):
        with pytest.raises(ValueError):
            TGIConfig(candidate_radius=float("nan"))


class TestFilterDetours:
    def test_empty(self, line):
        assert _filter_detours(line, [], 1.5) == []

    def test_relative_mode_keeps_shortest(self, line):
        routes = [Route.of([0]), Route.of([0, 2, 4, 6, 8])]
        kept = _filter_detours(line, routes, 1.5)
        assert Route.of([0]) in kept
        assert Route.of([0, 2, 4, 6, 8]) not in kept

    def test_yardstick_mode_strict(self, line):
        routes = [Route.of([0, 2, 4, 6, 8])]  # 1000 m
        kept = _filter_detours(line, routes, 1.5, yardstick=200.0)
        assert kept == []


class TestInference:
    def test_no_references_empty(self, line):
        tgi = TraverseGraphInference(line)
        routes, stats = tgi.infer(Point(0, 0), Point(1000, 0), [])
        assert routes == []
        assert stats.n_traverse_edges == 0

    def test_recovers_corridor(self, line):
        tgi = TraverseGraphInference(line, TGIConfig(candidate_radius=50.0))
        refs = [corridor_reference(i) for i in range(3)]
        routes, stats = tgi.infer(Point(0, 0), Point(1000, 0), refs)
        assert routes
        best = routes[0]
        # The best local route runs east along the corridor.
        assert best.start_point(line).x <= 200.0
        assert best.end_point(line).x >= 800.0
        assert stats.n_traverse_edges > 0
        assert stats.n_ksp_calls >= 1

    def test_routes_are_connected(self, line):
        tgi = TraverseGraphInference(line)
        refs = [corridor_reference(i) for i in range(2)]
        routes, __ = tgi.infer(Point(0, 0), Point(1000, 0), refs)
        for r in routes:
            assert r.is_connected(line)

    def test_max_routes_cap(self, line):
        cfg = TGIConfig(max_routes=2)
        tgi = TraverseGraphInference(line, cfg)
        refs = [corridor_reference(i) for i in range(3)]
        routes, __ = tgi.infer(Point(0, 0), Point(1000, 0), refs)
        assert len(routes) <= 2

    def test_reduction_counts_removals(self, line):
        refs = [corridor_reference(i) for i in range(2)]
        with_red = TraverseGraphInference(line, TGIConfig(lam=4, use_reduction=True))
        without = TraverseGraphInference(line, TGIConfig(lam=4, use_reduction=False))
        __, stats_red = with_red.infer(Point(0, 0), Point(1000, 0), refs)
        __, stats_no = without.infer(Point(0, 0), Point(1000, 0), refs)
        assert stats_red.n_links_removed > 0
        assert stats_no.n_links_removed == 0

    def test_reduction_preserves_best_route(self, line):
        refs = [corridor_reference(i) for i in range(2)]
        with_red = TraverseGraphInference(line, TGIConfig(use_reduction=True))
        without = TraverseGraphInference(line, TGIConfig(use_reduction=False))
        r1, __ = with_red.infer(Point(0, 0), Point(1000, 0), refs)
        r2, __ = without.infer(Point(0, 0), Point(1000, 0), refs)
        assert r1 and r2
        assert r1[0].segment_ids == r2[0].segment_ids

    def test_augmentation_bridges_gap(self, line):
        # References cover x in [0, 300] and [700, 1000] with a hole in the
        # middle larger than λ hops: without augmentation no path exists.
        left = make_ref([Point(x, 8.0) for x in (0.0, 100.0, 200.0, 300.0)], 0)
        right = make_ref([Point(x, 8.0) for x in (1400.0, 1500.0, 1600.0, 1700.0)], 1)
        qi, qi1 = Point(0, 0), Point(1700, 0)
        no_aug = TraverseGraphInference(
            line, TGIConfig(lam=2, use_augmentation=False, max_detour_ratio=3.0)
        )
        with_aug = TraverseGraphInference(
            line, TGIConfig(lam=2, use_augmentation=True, max_detour_ratio=3.0)
        )
        routes_no, __ = no_aug.infer(qi, qi1, [left, right])
        routes_yes, stats = with_aug.infer(qi, qi1, [left, right])
        assert routes_no == []
        assert routes_yes
        assert stats.n_links_augmented > 0

    def test_larger_lambda_more_links(self, line):
        refs = [corridor_reference(i) for i in range(2)]
        small = TraverseGraphInference(line, TGIConfig(lam=2, use_reduction=False))
        large = TraverseGraphInference(line, TGIConfig(lam=5, use_reduction=False))
        __, s_small = small.infer(Point(0, 0), Point(1000, 0), refs)
        __, s_large = large.infer(Point(0, 0), Point(1000, 0), refs)
        assert s_large.n_links > s_small.n_links

    def test_directional_traverse_edges(self, line):
        # Eastbound references must not produce westbound traverse edges.
        tgi = TraverseGraphInference(line)
        refs = [corridor_reference(0)]
        edges = tgi._collect_support(refs)
        for sid in edges:
            seg = line.segment(sid)
            assert (seg.polyline[-1] - seg.polyline[0]).x > 0


class TestOnCity:
    def test_city_inference(self, corridor_world):
        world = corridor_world
        cfg = ReferenceSearchConfig(phi=500.0)
        search = ReferenceSearch(world.archive, world.network, cfg)
        q = world.query
        mid = len(q) // 2
        qi, qi1 = q[0], q[mid]
        refs = search.search(qi, qi1)
        assert refs
        tgi = TraverseGraphInference(world.network)
        routes, __ = tgi.infer(qi.point, qi1.point, refs)
        assert routes
        truth_ids = set(world.truth.segment_ids)
        overlap = max(
            len(set(r.segment_ids) & truth_ids) / max(len(r), 1) for r in routes
        )
        assert overlap > 0.5
