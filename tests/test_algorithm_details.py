"""Focused tests of algorithm internals the figure benchmarks only graze.

These pin down behaviours of the paper's algorithms at the unit level:
the transitive-reduction criterion of TGI, the α budget of NNI, Viterbi
restart paths in the matchers, and K-GRI's tie handling.
"""

import math

import pytest

from repro.core.nni import NearestNeighborInference, NNIConfig, NNIStats
from repro.core.reference import Reference
from repro.core.scoring import LocalRoute
from repro.core.traverse_graph import TGIConfig, TraverseGraphInference, _Link
from repro.geo.point import Point
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import manhattan_line
from repro.roadnet.route import Route


def make_ref(points, ref_id=0):
    return Reference(
        ref_id=ref_id, source_ids=(ref_id,), points=tuple(points), spliced=False
    )


class TestGraphReduction:
    """The hop-metric transitive reduction of Algorithm 1 line 10."""

    @staticmethod
    def links_from(spec):
        """Build a links dict from {(u, v): hops}."""
        links = {}
        for (u, v), hops in spec.items():
            links.setdefault(u, {})[v] = _Link(weight=float(hops), hops=hops, via=())
        return links

    def test_removes_redundant_shortcut(self):
        # 1->2 (1 hop), 2->3 (1 hop), 1->3 (2 hops): the direct 1->3 link is
        # exactly the two-step path and must go.
        links = self.links_from({(1, 2): 1, (2, 3): 1, (1, 3): 2})
        removed = TraverseGraphInference._reduce(links)
        assert removed == 1
        assert 3 not in links[1]
        assert 2 in links[1]

    def test_keeps_genuinely_shorter_direct_link(self):
        # The direct link is FEWER hops than the two-step path: keep it.
        links = self.links_from({(1, 2): 2, (2, 3): 2, (1, 3): 3})
        removed = TraverseGraphInference._reduce(links)
        assert removed == 0
        assert 3 in links[1]

    def test_chain_collapses_to_successive_links(self):
        # Complete "forward" graph over a 4-chain: only the immediate links
        # survive.
        spec = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                spec[(i, j)] = j - i
        links = self.links_from(spec)
        TraverseGraphInference._reduce(links)
        for i in range(1, 4):
            assert set(links[i]) == {i + 1}

    def test_reduction_never_disconnects_reachability(self):
        spec = {(1, 2): 1, (2, 3): 1, (1, 3): 2, (3, 4): 1, (2, 4): 2, (1, 4): 3}
        links = self.links_from(spec)
        TraverseGraphInference._reduce(links)

        # 4 must still be reachable from 1.
        frontier, seen = [1], set()
        while frontier:
            n = frontier.pop()
            seen.add(n)
            frontier.extend(v for v in links.get(n, {}) if v not in seen)
        assert 4 in seen


class TestNNIAlphaBudget:
    """Line 20 of Algorithm 2: α shrinks by each backward move."""

    @pytest.fixture()
    def line(self):
        return manhattan_line(n_nodes=10, spacing=200.0)

    def test_alpha_zero_blocks_backward_points(self, line):
        nni = NearestNeighborInference(line, NNIConfig(alpha=0.0, k=4))
        # Pool: a point behind the start (backward) and one ahead.
        pool = [Point(-300.0, 0.0), Point(500.0, 0.0)]
        succ = nni._constrained_knn(Point(0.0, 0.0), Point(1000.0, 0.0), pool, 0.0)
        # Index 0 (backward: d_dest 1300 > 1000) must be filtered.
        assert 0 not in succ
        assert 1 in succ

    def test_alpha_admits_small_backtrack(self, line):
        # β must be loose enough that only the α budget is under test.
        nni = NearestNeighborInference(line, NNIConfig(alpha=500.0, beta=2.5, k=4))
        pool = [Point(-300.0, 0.0), Point(500.0, 0.0)]
        succ = nni._constrained_knn(
            Point(0.0, 0.0), Point(1000.0, 0.0), pool, 500.0
        )
        assert 0 in succ  # 300 m of drift is inside the 500 m budget

    def test_beta_blocks_detours(self, line):
        nni = NearestNeighborInference(line, NNIConfig(beta=1.2, k=4))
        # A lateral point closer than the destination (so the take-the-
        # destination shortcut stays out of play) whose detour ratio
        # (640 + 781) / 1000 ≈ 1.42 exceeds β = 1.2.
        pool = [Point(400.0, 500.0), Point(500.0, 0.0)]
        succ = nni._constrained_knn(
            Point(0.0, 0.0), Point(1000.0, 0.0), pool, 500.0
        )
        assert 1 in succ
        assert 0 not in succ

    def test_destination_taken_exclusively(self, line):
        nni = NearestNeighborInference(line, NNIConfig(k=4))
        # Current point is 60 m from the destination; the only pool points
        # are farther away than the destination itself.
        from repro.core.nni import _DEST

        pool = [Point(800.0, 0.0), Point(700.0, 0.0)]
        succ = nni._constrained_knn(
            Point(940.0, 0.0), Point(1000.0, 0.0), pool, 500.0
        )
        assert succ == [_DEST]


class TestKGRITies:
    def test_equal_scores_prefer_shorter_route(self):
        from repro.core.kgri import k_gri

        line = manhattan_line(n_nodes=10, spacing=100.0)
        # Two local routes with identical popularity and support but
        # different physical length.
        long_route = LocalRoute(
            route=Route.of([0, 2, 4, 6]), popularity=5.0, support=frozenset({1})
        )
        short_route = LocalRoute(
            route=Route.of([0, 2]), popularity=5.0, support=frozenset({1})
        )
        got = k_gri(RoutingEngine(line), [[long_route, short_route]], 1)
        assert got[0].route.segment_ids == (0, 2)


class TestViterbiRestart:
    def test_st_matching_survives_unreachable_layer(self):
        """A candidate layer unreachable from its predecessor must restart
        the DP rather than zero out the whole query."""
        from repro.geo.point import Point as P
        from repro.mapmatching import STMatcher
        from repro.roadnet.generators import manhattan_line
        from repro.trajectory.model import GPSPoint, Trajectory

        line = manhattan_line(n_nodes=10, spacing=200.0)
        # Second point is teleported far off the corridor: the route
        # distance bound makes the transition impossible.
        traj = Trajectory.build(
            1,
            [
                GPSPoint(P(100.0, 0.0), 0.0),
                GPSPoint(P(100.0, 200_000.0), 30.0),
                GPSPoint(P(900.0, 0.0), 60.0),
            ],
        )
        result = STMatcher(line).match(traj)
        assert result.route  # still produces something usable
        assert result.route.is_connected(line)
