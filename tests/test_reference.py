"""Unit tests for the reference-trajectory search (Definitions 6 and 7)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.archive import TrajectoryArchive
from repro.core.reference import (
    ReferenceSearch,
    ReferenceSearchConfig,
    _anchor_lookup,
    assemble_references,
    movement_direction,
    reference_traversed_segments,
)
from repro.geo.point import Point
from repro.roadnet.generators import manhattan_line
from repro.trajectory.model import GPSPoint, Trajectory


def traj(coords_times, tid=0):
    return Trajectory.build(
        tid, [GPSPoint(Point(x, y), t) for (x, y, t) in coords_times]
    )


@pytest.fixture()
def line():
    # 10 nodes, 200 m apart, along y = 0; local speed ~8.33 m/s.
    return manhattan_line(n_nodes=10, spacing=200.0)


def query_pair(x0=0.0, x1=1000.0, dt=600.0):
    return GPSPoint(Point(x0, 0.0), 0.0), GPSPoint(Point(x1, 0.0), dt)


def corridor_trajectory(offset_y=10.0, spacing=100.0, n=19, t0=0.0, dt=20.0):
    """A trajectory driving east along the corridor."""
    return [(i * spacing, offset_y, t0 + i * dt) for i in range(n)]


class TestSimpleReferences:
    def test_basic_match(self, line):
        archive = TrajectoryArchive.from_trips([traj(corridor_trajectory())])
        search = ReferenceSearch(archive, line, ReferenceSearchConfig(phi=300.0))
        qi, qi1 = query_pair()
        refs = search.search(qi, qi1)
        assert len(refs) == 1
        assert not refs[0].spliced
        assert refs[0].source_ids == (0,)

    def test_subtrajectory_anchored_at_nearest_points(self, line):
        archive = TrajectoryArchive.from_trips([traj(corridor_trajectory())])
        search = ReferenceSearch(archive, line, ReferenceSearchConfig(phi=300.0))
        qi, qi1 = query_pair()
        ref = search.search(qi, qi1)[0]
        # nn(q_i) is the point at x=0, nn(q_{i+1}) at x=1000.
        assert ref.points[0].distance_to(qi.point) <= 50.0
        assert ref.points[-1].distance_to(qi1.point) <= 50.0

    def test_too_far_rejected(self, line):
        # Trajectory 600 m north of the corridor: outside phi = 300.
        archive = TrajectoryArchive.from_trips(
            [traj(corridor_trajectory(offset_y=600.0))]
        )
        search = ReferenceSearch(
            archive, line, ReferenceSearchConfig(phi=300.0, enable_splicing=False)
        )
        qi, qi1 = query_pair()
        assert search.search(qi, qi1) == []

    def test_wrong_direction_rejected(self, line):
        # Trajectory travelling west (from q_{i+1} towards q_i).
        pts = [(1800.0 - i * 100.0, 10.0, i * 20.0) for i in range(19)]
        archive = TrajectoryArchive.from_trips([traj(pts)])
        search = ReferenceSearch(
            archive, line, ReferenceSearchConfig(phi=300.0, enable_splicing=False)
        )
        qi, qi1 = query_pair()
        assert search.search(qi, qi1) == []

    def test_speed_ellipse_condition(self, line):
        # A reference that detours 3 km north violates condition 3 when the
        # query's time budget is tight.
        pts = (
            [(0.0, 0.0, 0.0)]
            + [(500.0, 3000.0, 60.0)]
            + [(1000.0, 0.0, 120.0)]
        )
        archive = TrajectoryArchive.from_trips([traj(pts)])
        search = ReferenceSearch(
            archive, line, ReferenceSearchConfig(phi=300.0, enable_splicing=False)
        )
        # Budget: dt * Vmax = 120 s * 8.33 = 1000 m < required detour.
        qi = GPSPoint(Point(0, 0), 0.0)
        qi1 = GPSPoint(Point(1000, 0), 120.0)
        assert search.search(qi, qi1) == []
        # With a generous budget the same trajectory qualifies.
        qi1_slow = GPSPoint(Point(1000, 0), 2000.0)
        assert len(search.search(qi, qi1_slow)) == 1

    def test_temporal_order_required(self, line):
        archive = TrajectoryArchive()
        search = ReferenceSearch(archive, line)
        with pytest.raises(ValueError):
            search.search(GPSPoint(Point(0, 0), 10.0), GPSPoint(Point(1, 0), 5.0))

    def test_max_references_cap(self, line):
        trips = [
            traj(corridor_trajectory(offset_y=float(k)), tid=k) for k in range(30)
        ]
        archive = TrajectoryArchive.from_trips(trips)
        search = ReferenceSearch(
            archive, line, ReferenceSearchConfig(phi=300.0, max_references=10)
        )
        qi, qi1 = query_pair()
        refs = search.search(qi, qi1)
        assert len(refs) == 10
        # Re-idded contiguously.
        assert sorted(r.ref_id for r in refs) == list(range(10))


class TestSplicedReferences:
    def test_splice_formed(self, line):
        # T_a covers the first 60% of the corridor, T_b the last 60%; they
        # overlap in the middle, neither is a simple reference.
        t_a = traj([(i * 100.0, 10.0, i * 20.0) for i in range(7)], tid=0)
        t_b = traj([(400.0 + i * 100.0, -10.0, i * 20.0) for i in range(7)], tid=1)
        archive = TrajectoryArchive.from_trips([t_a, t_b])
        search = ReferenceSearch(
            archive,
            line,
            ReferenceSearchConfig(phi=150.0, splice_epsilon=150.0),
        )
        qi, qi1 = query_pair(0.0, 1000.0, dt=600.0)
        refs = search.search(qi, qi1)
        spliced = [r for r in refs if r.spliced]
        assert len(spliced) == 1
        assert set(spliced[0].source_ids) == {0, 1}
        # The splice runs from near q_i to near q_{i+1}.
        assert spliced[0].points[0].distance_to(qi.point) <= 150.0
        assert spliced[0].points[-1].distance_to(qi1.point) <= 150.0

    def test_no_splice_when_gap_too_wide(self, line):
        t_a = traj([(i * 100.0, 10.0, i * 20.0) for i in range(4)], tid=0)  # to x=300
        t_b = traj([(700.0 + i * 100.0, -10.0, i * 20.0) for i in range(4)], tid=1)
        archive = TrajectoryArchive.from_trips([t_a, t_b])
        search = ReferenceSearch(
            archive,
            line,
            ReferenceSearchConfig(phi=150.0, splice_epsilon=100.0),
        )
        qi, qi1 = query_pair(0.0, 1000.0, dt=600.0)
        assert [r for r in search.search(qi, qi1) if r.spliced] == []

    def test_splicing_disabled(self, line):
        t_a = traj([(i * 100.0, 10.0, i * 20.0) for i in range(7)], tid=0)
        t_b = traj([(400.0 + i * 100.0, -10.0, i * 20.0) for i in range(7)], tid=1)
        archive = TrajectoryArchive.from_trips([t_a, t_b])
        search = ReferenceSearch(
            archive,
            line,
            ReferenceSearchConfig(phi=150.0, enable_splicing=False),
        )
        qi, qi1 = query_pair()
        assert search.search(qi, qi1) == []

    def test_simple_reference_not_duplicated_as_splice(self, line):
        archive = TrajectoryArchive.from_trips([traj(corridor_trajectory())])
        search = ReferenceSearch(archive, line, ReferenceSearchConfig(phi=300.0))
        qi, qi1 = query_pair()
        refs = search.search(qi, qi1)
        assert len(refs) == 1 and not refs[0].spliced


@st.composite
def trips_around_rim(draw, phi=500.0):
    """A query point and a trip whose points sit inside, outside and
    within a few ulps of the φ circle around it, with duplicates."""
    q = Point(draw(st.floats(-5_000.0, 5_000.0)), draw(st.floats(-5_000.0, 5_000.0)))
    coords = []
    for __ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["rim", "rim", "inside", "outside", "duplicate"]))
        if kind == "duplicate" and coords:
            coords.append(draw(st.sampled_from(coords)))
            continue
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        r = {
            "inside": draw(st.floats(0.0, phi)),
            "outside": draw(st.floats(phi, 3.0 * phi)),
        }.get(kind, phi)
        x, y = q.x + r * math.cos(theta), q.y + r * math.sin(theta)
        for __ in range(draw(st.integers(0, 3))):
            x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
        coords.append((x, y))
    return q, [(x, y, 10.0 * i) for i, (x, y) in enumerate(coords)]


#: A query point and two observations on either side of its φ = 500 m
#: circle: by ``hypot`` a lies outside and b exactly on it, but by squared
#: distance a is the nearer one.
RIM_Q = Point(826.6553248836883, 419.1986711277601)
RIM_A = Point(636.6994889498541, 881.7100551981182)
RIM_B = Point(834.8026617092802, -80.73494536812063)


class TestAnchors:
    """Anchors come from the range-query hits, with a full-scan fallback
    at the φ rim."""

    def test_rim_anchor_falls_back_to_full_scan(self):
        # a is nn(q_i, T), but only b is a range-query hit.
        q_i = GPSPoint(RIM_Q, 0.0)
        a, b = RIM_A, RIM_B
        assert a.distance_to(q_i.point) > 500.0 >= b.distance_to(q_i.point)
        assert a.squared_distance_to(q_i.point) < b.squared_distance_to(q_i.point)
        trip = traj([(b.x, b.y, 10.0), (a.x, a.y, 20.0), (2500.0, 400.0, 30.0)])
        archive = TrajectoryArchive.from_trips([trip])
        q_j = GPSPoint(Point(2510.0, 400.0), 3600.0)
        near_i, __ = archive.trajectories_near_pair(q_i.point, q_j.point, 500.0)
        assert near_i == {0: [0]}
        assert trip.nearest_index(q_i.point, near_i[0]) == 0
        assert trip.nearest_index(q_i.point) == 1

        # The anchor is the full scan's a, which fails the φ test: no
        # reference, exactly as when every anchor came from a full scan.
        anchor = _anchor_lookup(archive, q_i.point, near_i, 500.0)
        assert anchor(0)[0] == 1
        cfg = ReferenceSearchConfig(phi=500.0, enable_splicing=False)
        line = manhattan_line(n_nodes=20, spacing=200.0)
        assert assemble_references(archive, line, q_i, q_j, cfg) == []

    @settings(max_examples=200, deadline=None)
    @given(trips_around_rim())
    @example((RIM_Q, [(RIM_B.x, RIM_B.y, 0.0), (RIM_A.x, RIM_A.y, 10.0)]))
    def test_hit_scan_anchor_matches_full_scan(self, case):
        q, coords = case
        trip = traj(coords)
        archive = TrajectoryArchive.from_trips([trip])
        near, __ = archive.trajectories_near_pair(q, q, 500.0)
        anchor = _anchor_lookup(archive, q, near, 500.0)
        for tid in near:
            idx, obs = anchor(tid)
            assert idx == trip.nearest_index(q)
            assert obs == trip.points[idx]


class TestReferencePoints:
    def test_flatten(self, line):
        archive = TrajectoryArchive.from_trips([traj(corridor_trajectory())])
        search = ReferenceSearch(archive, line, ReferenceSearchConfig(phi=300.0))
        qi, qi1 = query_pair()
        refs = search.search(qi, qi1)
        pool = search.reference_points(refs)
        assert len(pool) == len(refs[0].points)
        assert all(rp.ref_id == refs[0].ref_id for rp in pool)
        assert [rp.seq for rp in pool] == list(range(len(pool)))


class TestDirectionHelpers:
    def test_movement_direction_interior(self):
        pts = [Point(0, 0), Point(10, 0), Point(20, 10)]
        d = movement_direction(pts, 1)
        assert d == Point(20, 10)

    def test_movement_direction_endpoints(self):
        pts = [Point(0, 0), Point(10, 0)]
        assert movement_direction(pts, 0) == Point(10, 0)
        assert movement_direction(pts, 1) == Point(10, 0)

    def test_movement_direction_singleton_is_zero(self):
        assert movement_direction([Point(1, 1)], 0) == Point(0, 0)

    def test_traversed_segments_directional(self, line):
        # An eastbound reference only supports eastbound segments.
        archive = TrajectoryArchive.from_trips([traj(corridor_trajectory())])
        search = ReferenceSearch(archive, line, ReferenceSearchConfig(phi=300.0))
        qi, qi1 = query_pair()
        ref = search.search(qi, qi1)[0]
        segs = reference_traversed_segments(line, ref, 50.0)
        assert segs
        for sid in segs:
            seg = line.segment(sid)
            direction = seg.polyline[-1] - seg.polyline[0]
            assert direction.x > 0  # eastbound only
