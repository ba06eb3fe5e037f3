"""Cross-module property tests: invariants of the whole pipeline.

These use hypothesis to drive the system with randomised worlds and
queries, asserting structural invariants rather than accuracy numbers:
routes are always connected, scores always sorted, the reference search
always honours its definitions, stitching never breaks connectivity.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.reference import ReferenceSearch, ReferenceSearchConfig
from repro.core.system import HRIS, HRISConfig
from repro.eval.metrics import route_accuracy
from repro.geo.point import Point
from repro.mapmatching.base import stitch_route
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.resample import downsample

# One fixed small world for the property tests (hypothesis varies the
# queries, not the city).
_NETWORK = grid_city(GridCityConfig(nx=8, ny=8, drop_fraction=0.0), np.random.default_rng(2))
_SEGMENT_IDS = [s.segment_id for s in _NETWORK.segments()]
_ENGINE = RoutingEngine(_NETWORK)


class TestStitchRouteProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(_SEGMENT_IDS), min_size=1, max_size=8))
    def test_always_connected_on_connected_network(self, segments):
        route = stitch_route(_ENGINE, segments)
        assert route.is_connected(_NETWORK)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(_SEGMENT_IDS), min_size=1, max_size=8))
    def test_covers_all_requested_segments_in_order(self, segments):
        route = stitch_route(_ENGINE, segments)
        # Every requested segment appears, and first occurrences respect
        # the request order (duplicates may collapse).
        positions = []
        ids = list(route.segment_ids)
        cursor = 0
        for sid in segments:
            try:
                cursor = ids.index(sid, cursor)
            except ValueError:
                pytest.fail(f"segment {sid} missing or out of order")
            positions.append(cursor)
        assert positions == sorted(positions)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(_SEGMENT_IDS))
    def test_single_segment_identity(self, sid):
        assert stitch_route(_ENGINE, [sid]).segment_ids == (sid,)


class TestReferenceSearchProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(0, 10_000),
        st.floats(200.0, 800.0),
    )
    def test_definition6_conditions_hold(self, seed, phi):
        """Whatever the archive, every returned simple reference satisfies
        Definition 6's three conditions."""
        rng = np.random.default_rng(seed)
        from repro.core.archive import TrajectoryArchive
        from repro.trajectory.simulate import DriveConfig, drive_route
        from repro.roadnet.shortest_path import shortest_route_between_nodes

        archive = TrajectoryArchive()
        node_ids = [n.node_id for n in _NETWORK.nodes()]
        for k in range(6):
            a, b = rng.choice(node_ids, size=2, replace=False)
            d, route = shortest_route_between_nodes(_NETWORK, int(a), int(b))
            if math.isinf(d) or not route:
                continue
            drive = drive_route(
                _NETWORK,
                route,
                k,
                config=DriveConfig(sample_interval_s=45.0, gps_sigma_m=12.0),
                rng=rng,
            )
            archive.add(drive.trajectory)
        if len(archive) == 0:
            return

        search = ReferenceSearch(
            archive, _NETWORK, ReferenceSearchConfig(phi=phi, enable_splicing=False)
        )
        qi = GPSPoint(Point(500.0, 500.0), 0.0)
        qi1 = GPSPoint(Point(2500.0, 2500.0), 600.0)
        budget = 600.0 * _NETWORK.max_speed
        for ref in search.search(qi, qi1):
            # Condition 2: anchors inside the phi circles.
            assert ref.points[0].distance_to(qi.point) <= phi + 1e-6
            assert ref.points[-1].distance_to(qi1.point) <= phi + 1e-6
            # Condition 3: the speed ellipse, for every point.
            for p in ref.points:
                assert (
                    p.distance_to(qi.point) + p.distance_to(qi1.point)
                    <= budget + 1e-6
                )


@pytest.fixture(scope="module")
def pipeline_world():
    from repro.datasets.synthetic import ScenarioConfig, build_scenario

    return build_scenario(
        ScenarioConfig(
            grid=GridCityConfig(nx=10, ny=10),
            n_od_pairs=4,
            min_od_distance=3000.0,
            n_archive_trips=60,
            n_background_trips=6,
            n_queries=4,
            seed=23,
        )
    )


class TestSystemProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from([120.0, 240.0, 480.0, 900.0]),
        st.integers(1, 6),
        st.integers(0, 3),
    )
    def test_output_invariants(self, pipeline_world, interval, k, query_idx):
        sc = pipeline_world
        hris = HRIS(sc.network, sc.archive, HRISConfig())
        case = sc.queries[query_idx]
        query = downsample(case.query, interval)
        if len(query) < 2:
            return
        routes = hris.infer_routes(query, k)
        assert 1 <= len(routes) <= k
        scores = [g.log_score for g in routes]
        assert scores == sorted(scores, reverse=True)
        for g in routes:
            assert g.route.is_connected(sc.network)
            assert len(g.local_indices) == len(query) - 1
            acc = route_accuracy(sc.network, case.truth, g.route)
            assert 0.0 <= acc <= 1.0
