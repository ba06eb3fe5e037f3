"""DistanceTableOracle: batched sweeps must be invisible except in stats.

Every distance the table oracle serves — prepared, lazily resumed, or
swept for a source that had no row — must be float-identical to the
per-pair reference (one full ``dijkstra_all`` table per source,
:class:`tests.reference_oracle.PerPairOracle`), and every matcher must
return the same match with an engine, without one, and with the
reference's distances.
"""

import math

import numpy as np
import pytest

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
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import GridCityConfig, grid_city, manhattan_line
from repro.roadnet.shortest_path import shortest_route_between_nodes
from repro.roadnet.table_oracle import DistanceTableOracle
from repro.trajectory.simulate import DriveConfig, drive_route
from tests.reference_oracle import PerPairOracle


@pytest.fixture(scope="module")
def city():
    return grid_city(
        GridCityConfig(nx=9, ny=9, drop_fraction=0.1, one_way_fraction=0.15),
        np.random.default_rng(23),
    )


@pytest.fixture(scope="module")
def node_ids(city):
    return sorted(n.node_id for n in city.nodes())


class TestDistanceIdentity:
    def test_prepared_pairs_match_per_pair_oracle(self, city, node_ids):
        per_pair = PerPairOracle(city, max_distance=3_000.0)
        table = DistanceTableOracle(city, max_distance=3_000.0)
        sources = node_ids[::9]
        targets = node_ids[3::11]
        table.prepare(sources, targets)
        for s in sources:
            for t in targets:
                assert table.distance(s, t) == per_pair.distance(s, t)

    def test_lazy_resume_for_uncovered_target(self, city, node_ids):
        """A target the prepared sweep never reached resumes the same row
        and still reads the exact dijkstra_all value."""
        per_pair = PerPairOracle(city)
        table = DistanceTableOracle(city)
        s = node_ids[0]
        near = min(
            (t for t in node_ids if t != s),
            key=lambda t: per_pair.distance(s, t),
        )
        far = max(node_ids, key=lambda t: per_pair.distance(s, t))
        table.prepare([s], [near])
        sweeps_before = table.sweeps
        assert table.distance(s, far) == per_pair.distance(s, far)
        assert table.sweeps == sweeps_before + 1  # resumed, not restarted

    def test_prepare_settles_fewer_nodes_than_full_tables(self, city, node_ids):
        """The reason this class exists: covering a frontier product must
        cost far less settling than building each source's full table."""
        per_pair = PerPairOracle(city)
        table = DistanceTableOracle(city)
        sources = node_ids[:4]
        targets = node_ids[5:9]  # a nearby frontier, as in a Viterbi step
        table.prepare(sources, targets)
        for s in sources:
            per_pair.table(s)
        assert table.settled_nodes < per_pair.settled_nodes

    def test_unreachable_within_bound_reads_inf(self):
        line = manhattan_line(n_nodes=6, spacing=100.0)
        table = DistanceTableOracle(line, max_distance=150.0)
        table.prepare([0], [5])
        assert math.isinf(table.distance(0, 5))
        assert table.distance(0, 1) == 100.0

    @pytest.mark.parametrize("bound", [1_500.0, math.inf], ids=["bounded", "open"])
    def test_no_row_lookup_matches_reference(self, city, node_ids, bound):
        """A pair whose source has no row opens one and sweeps it until the
        target settles — the same discipline as ``prepare``."""
        per_pair = PerPairOracle(city, max_distance=bound)
        table = DistanceTableOracle(city, max_distance=bound, max_rows=2)
        table.prepare([node_ids[0], node_ids[1]], [node_ids[10]])
        s, t = node_ids[40], node_ids[70]
        sweeps_before = table.sweeps
        assert table.distance(s, t) == per_pair.distance(s, t)
        assert table.sweeps == sweeps_before + 1
        # The new row is cached like a prepared one: a later target from
        # the same source resumes it.
        far = node_ids[-1]
        assert table.distance(s, far) == per_pair.distance(s, far)
        assert table.stats.hits == 1


class TestProjectionParity:
    @pytest.fixture(scope="class")
    def line(self):
        return manhattan_line(n_nodes=6, spacing=100.0)

    def test_same_segment_forward(self, line):
        table = DistanceTableOracle(line)
        assert table.route_distance_between_projections(0, 10.0, 0, 60.0) == 50.0

    def test_cross_segment_matches_per_pair(self, line):
        per_pair = PerPairOracle(line)
        table = DistanceTableOracle(line)
        for args in [(0, 50.0, 2, 25.0), (0, 60.0, 0, 10.0), (0, 0.0, 6, 30.0)]:
            assert table.route_distance_between_projections(
                *args
            ) == per_pair.route_distance_between_projections(*args)


class TestLifecycle:
    def test_lru_eviction(self, city, node_ids):
        table = DistanceTableOracle(city, max_rows=2)
        table.prepare(node_ids[:3], [node_ids[20]])  # third row evicts first
        assert table.stats.evictions == 1

    def test_prepare_for_fork_seals_and_resumes(self, city, node_ids):
        per_pair = PerPairOracle(city)
        table = DistanceTableOracle(city)
        s = node_ids[0]
        table.prepare([s], [node_ids[5]])
        table.prepare_for_fork()
        row = table._rows.get(s)
        assert isinstance(row.heap, tuple)
        # A post-fork read resumes the sealed heap and stays exact.
        far = node_ids[-1]
        assert table.distance(s, far) == per_pair.distance(s, far)

    def test_clear_drops_rows(self, city, node_ids):
        table = DistanceTableOracle(city)
        table.prepare([node_ids[0]], [node_ids[5]])
        table.clear()
        assert table.distance(node_ids[0], node_ids[5]) >= 0.0


def matched_ids(result):
    return [None if c is None else c.segment.segment_id for c in result.matched]


class TestMatcherIdentity:
    """Every matcher must match as it does on the reference's distances."""

    @pytest.fixture(scope="class")
    def trajectory(self, city):
        __, route = shortest_route_between_nodes(city, 0, 80)
        drive = drive_route(
            city,
            route,
            traj_id=1,
            config=DriveConfig(sample_interval_s=20.0, gps_sigma_m=10.0),
            rng=np.random.default_rng(3),
        )
        return drive.trajectory

    @pytest.fixture(scope="class")
    def table_engine(self, city):
        return RoutingEngine(city)

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
    def test_engine_table_matches_no_engine(
        self, city, trajectory, table_engine, factory
    ):
        reference = factory(city, None)
        reference._oracle = PerPairOracle(city, reference._config.max_route_distance)
        expected = reference.match(trajectory)
        for engine in (None, table_engine):
            got = factory(city, engine).match(trajectory)
            assert got.route.segment_ids == expected.route.segment_ids
            assert matched_ids(got) == matched_ids(expected)

    def test_engine_stats_show_oracle_traffic(self, city, trajectory, table_engine):
        stats = table_engine.stats()
        assert stats.oracle.hits > 0  # the seed engine reported zeros here
        assert stats.sweeps > 0
        assert stats.settled_nodes > 0


class TestEngineConfigValidation:
    def test_incremental_bound_lifted_into_config(self, city):
        cfg = IncrementalConfig(max_route_distance=1_234.0)
        matcher = IncrementalMatcher(city, cfg)
        assert matcher._oracle._max_distance == 1_234.0
