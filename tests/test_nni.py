"""Unit tests for the nearest-neighbor inference (Algorithm 2)."""

import math

import pytest

from repro.core.nni import NearestNeighborInference, NNIConfig
from repro.core.reference import Reference, ReferenceSearch, ReferenceSearchConfig
from repro.geo.point import Point
from repro.roadnet.generators import manhattan_line


def make_ref(points, ref_id=0):
    return Reference(
        ref_id=ref_id, source_ids=(ref_id,), points=tuple(points), spliced=False
    )


@pytest.fixture()
def line():
    return manhattan_line(n_nodes=10, spacing=200.0)


def corridor_reference(ref_id=0, offset_y=8.0, spacing=150.0, n=12):
    return make_ref(
        [Point(i * spacing, offset_y) for i in range(n)], ref_id=ref_id
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NNIConfig(k=0)
        with pytest.raises(ValueError):
            NNIConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            NNIConfig(beta=0.9)

    # NaN passes `alpha < 0` and `beta < 1`, and then every α and β
    # comparison of Algorithm 2 is false: both filters would pass all.
    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            NNIConfig(alpha=math.nan)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError):
            NNIConfig(beta=math.nan)

    def test_infinite_alpha_allowed(self):
        assert NNIConfig(alpha=math.inf).alpha == math.inf


class TestPoolDedup:
    def test_near_duplicates_collapse(self, line):
        nni = NearestNeighborInference(line, NNIConfig(candidate_radius=50.0))
        cluster = [Point(10.0 + i, 10.0 + i) for i in range(5)]
        assert len(nni._dedupe_pool(cluster)) == 1

    def test_distant_points_kept(self, line):
        nni = NearestNeighborInference(line, NNIConfig(candidate_radius=50.0))
        spread = [Point(i * 500.0, 0.0) for i in range(5)]
        assert len(nni._dedupe_pool(spread)) == 5


class TestInference:
    def test_no_references_empty(self, line):
        nni = NearestNeighborInference(line)
        routes, stats = nni.infer(Point(0, 0), Point(1000, 0), [])
        assert routes == []
        assert stats.n_reference_points == 0

    def test_recovers_corridor(self, line):
        nni = NearestNeighborInference(line)
        refs = [corridor_reference(i) for i in range(2)]
        routes, stats = nni.infer(Point(0, 0), Point(1000, 0), refs)
        assert routes
        assert stats.n_paths > 0
        best = routes[0]
        assert best.is_connected(line)
        assert best.start_point(line).x <= 200.0
        assert best.end_point(line).x >= 800.0

    def test_routes_within_detour_bound(self, line):
        nni = NearestNeighborInference(line, NNIConfig(max_detour_ratio=1.5))
        refs = [corridor_reference(i) for i in range(2)]
        routes, __ = nni.infer(Point(0, 0), Point(1000, 0), refs)
        for r in routes:
            assert r.length(line) <= 1.5 * 1400.0  # generous: endpoint overhang

    def test_sharing_reduces_knn_searches(self, line):
        refs = [corridor_reference(i, offset_y=float(6 * i)) for i in range(4)]
        shared = NearestNeighborInference(
            line, NNIConfig(share_substructures=True, max_paths=16)
        )
        unshared = NearestNeighborInference(
            line, NNIConfig(share_substructures=False, max_paths=16)
        )
        __, s1 = shared.infer(Point(0, 0), Point(1600, 0), refs)
        __, s2 = unshared.infer(Point(0, 0), Point(1600, 0), refs)
        assert s1.n_knn_searches <= s2.n_knn_searches

    def test_expansion_budget_respected(self, line):
        refs = [corridor_reference(i, offset_y=float(10 * i), spacing=60.0, n=30) for i in range(5)]
        nni = NearestNeighborInference(
            line, NNIConfig(max_expansions=100, max_paths=1000)
        )
        routes, stats = nni.infer(Point(0, 0), Point(1600, 0), refs)
        assert stats.n_knn_searches <= 110  # budget plus slack for re-searches

    def test_max_paths_cap(self, line):
        refs = [corridor_reference(i, offset_y=float(8 * i)) for i in range(4)]
        nni = NearestNeighborInference(line, NNIConfig(max_paths=5))
        __, stats = nni.infer(Point(0, 0), Point(1000, 0), refs)
        assert stats.n_paths <= 5

    def test_alpha_zero_still_reaches_destination(self, line):
        # With no backward tolerance, strictly-progressing walks remain.
        nni = NearestNeighborInference(line, NNIConfig(alpha=0.0))
        refs = [corridor_reference(0)]
        routes, __ = nni.infer(Point(0, 0), Point(1000, 0), refs)
        assert routes


class TestOnCity:
    def test_city_inference(self, corridor_world):
        world = corridor_world
        search = ReferenceSearch(
            world.archive, world.network, ReferenceSearchConfig(phi=500.0)
        )
        q = world.query
        mid = len(q) // 2
        qi, qi1 = q[0], q[mid]
        refs = search.search(qi, qi1)
        nni = NearestNeighborInference(world.network)
        routes, stats = nni.infer(qi.point, qi1.point, refs)
        assert stats.n_reference_points > 0
        # NNI may legitimately return nothing when all walks detour, but on
        # this dense corridor it should find at least one plausible route.
        assert routes
        truth_ids = set(world.truth.segment_ids)
        overlap = max(
            len(set(r.segment_ids) & truth_ids) / max(len(r), 1) for r in routes
        )
        assert overlap > 0.4
