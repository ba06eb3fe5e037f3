"""The flat constrained-kNN kernel against the sort-based reference.

NNI lays each query pair's pool out flat (:class:`repro.core.nni._FlatPool`)
and pops pool indices nearest-first from a heap filled by an axis sweep;
its walk filter reads the precomputed distances to ``q_{i+1}`` and keys
walks by pool indices.  ``tests/reference_nni.py`` keeps the
``Point``-based search that sorted the whole pool on every call.  Here
every search order, successor list, walk and route must equal the
reference's, on pools built to break the kernel where it can go wrong:
exact distance ties (points mirrored about the current point, points on
one circle), duplicates, the current point itself, points exactly as far
as the destination, and exclusion sets.

The reference stage's speed-ellipse screen and ``Trajectory.nearest_index``
read raw coordinates too; they are checked against their
``distance_to`` / ``squared_distance_to`` forms, with budgets set to a
point's exact ``hypot`` sum.
"""

import math
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.nni import _DEST, NearestNeighborInference, NNIConfig, _FlatPool
from repro.core.reference import Reference, within_speed_ellipse
from repro.geo.point import Point
from repro.roadnet.generators import GridCityConfig, grid_city, manhattan_line
from repro.trajectory.model import GPSPoint, Trajectory
from tests.reference_nni import ReferenceNNI, reference_constrained_knn

#: A point whose ``hypot`` distance from the origin equals ``ULP_DEST``'s
#: exactly, while ``math.sqrt`` of its squared distance is one ulp lower.
ULP_POINT = (903.93, 110.265)
ULP_DEST = (910.6304492630367, 0.0)

#: Integer offsets on one circle of radius 5 (a Pythagorean triple).
CIRCLE = [(5, 0), (3, 4), (4, 3), (0, 5), (-3, 4), (-4, -3), (0, -5), (-5, 0)]

alphas = st.one_of(
    st.just(0.0), st.just(math.inf), st.floats(0.0, 2_000.0), st.integers(0, 40)
)
betas = st.one_of(st.just(1.0), st.just(math.inf), st.floats(1.0, 4.0))
finite = st.floats(-5_000.0, 5_000.0, allow_nan=False, allow_infinity=False)
any_point = st.builds(Point, finite, finite)


@lru_cache(maxsize=None)
def _line():
    return manhattan_line(n_nodes=6, spacing=200.0)


@lru_cache(maxsize=None)
def _city():
    return grid_city(
        GridCityConfig(nx=5, ny=5, spacing=200.0), np.random.default_rng(3)
    )


def test_ulp_example_is_what_it_claims():
    x, y = ULP_POINT
    d = math.hypot(x, y)
    assert d == math.hypot(*ULP_DEST)
    assert math.sqrt(x * x + y * y) == math.nextafter(d, 0.0)


@st.composite
def tie_pools(draw):
    """``(current, dest, pool)`` on a scaled integer lattice.

    Lattice coordinates make squared distances exact, so equal keys are
    common: mirrored offsets, circle points, duplicates, the current
    point itself and pool points as far away as the destination.
    """
    scale = draw(st.sampled_from([1.0, 0.5, 37.5, 100.0]))
    cx, cy = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    offsets = draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=18)
    )
    if draw(st.booleans()):
        mirrored = draw(st.lists(st.sampled_from(offsets or [(1, 2)]), max_size=4))
        offsets += [(-a, -b) for a, b in mirrored]
    if draw(st.booleans()):
        offsets += draw(st.lists(st.sampled_from(CIRCLE), max_size=8))
    if offsets and draw(st.booleans()):
        offsets += draw(st.lists(st.sampled_from(offsets), max_size=4))  # duplicates
    if draw(st.booleans()):
        offsets.insert(draw(st.integers(0, len(offsets))), (0, 0))  # the current point
    dest_offset = draw(
        st.one_of(
            st.sampled_from(CIRCLE),
            st.sampled_from(offsets or [(0, 0)]),
            st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
        )
    )
    pool = [Point((cx + a) * scale, (cy + b) * scale) for a, b in offsets]
    current = Point(cx * scale, cy * scale)
    dest = Point((cx + dest_offset[0]) * scale, (cy + dest_offset[1]) * scale)
    return current, dest, pool


@st.composite
def float_pools(draw):
    """``(current, dest, pool)`` with arbitrary float coordinates."""
    pool = draw(st.lists(any_point, max_size=20))
    current = draw(st.one_of(any_point, st.sampled_from(pool)) if pool else any_point)
    return current, draw(any_point), pool


pools = st.one_of(tie_pools(), float_pools())


def stable_order(current, pool):
    return sorted(range(len(pool)), key=lambda i: pool[i].squared_distance_to(current))


class TestNearestFirst:
    """The lazily filled heap pops in the full stable sort's order."""

    @settings(max_examples=300, deadline=None)
    @given(pools)
    def test_order_is_the_stable_sort(self, case):
        current, __, pool = case
        flat = _FlatPool(pool, current)
        got = list(flat.nearest_first(current.x, current.y))
        assert got == stable_order(current, pool)

    def test_mirrored_tie_pops_lower_index_first(self):
        # Index 1 lies on the side the sweep pushes first; its tie with
        # index 0 must still pop index 0 first.
        pool = [Point(1.0, 0.0), Point(-1.0, 0.0)]
        flat = _FlatPool(pool, Point(10.0, 0.0))
        assert list(flat.nearest_first(0.0, 0.0)) == [0, 1]

    def test_vertical_pool_sweeps_along_y(self):
        pool = [Point(0.0, float(y)) for y in (40, -10, 25, 5, -30)]
        flat = _FlatPool(pool, Point(0.0, 100.0))
        origin = Point(0.0, 0.0)
        assert list(flat.nearest_first(0.0, 0.0)) == stable_order(origin, pool)

    def test_empty_pool(self):
        assert list(_FlatPool([], Point(0.0, 0.0)).nearest_first(1.0, 2.0)) == []


class TestConstrainedKnnMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(pools, st.integers(1, 6), alphas, betas, st.data())
    @example(
        case=(Point(0.0, 0.0), Point(*ULP_DEST), [Point(*ULP_POINT)]),
        k=4,
        alpha=500.0,
        beta=1.5,
        data=None,
    )
    def test_successors_equal(self, case, k, alpha, beta, data):
        current, dest, pool = case
        exclude = None
        if data is not None and pool and data.draw(st.booleans()):
            exclude = data.draw(st.sets(st.integers(0, len(pool) - 1)))
        nni = NearestNeighborInference(_line(), NNIConfig(k=k, beta=beta))
        got = nni._constrained_knn(current, dest, pool, alpha, exclude)
        assert got == reference_constrained_knn(
            k, beta, current, dest, pool, alpha, exclude
        )

    def test_ulp_point_defers_to_the_destination(self):
        # d(current, p) == d(current, dest) under hypot, so the destination
        # is taken exclusively; the heap key's square root would admit p.
        nni = NearestNeighborInference(_line(), NNIConfig(k=4))
        got = nni._constrained_knn(
            Point(0.0, 0.0), Point(*ULP_DEST), [Point(*ULP_POINT)], 500.0
        )
        assert got == [_DEST]


coord = st.integers(0, 16).map(lambda v: v * 50.0)
jitter = st.sampled_from([0.0, 0.25, 12.5, 37.5, -20.0])


@st.composite
def nni_cases(draw):
    """Query endpoints and references inside the 800 m test city.

    Besides lattice points, references may hold points mirrored about
    ``q_i``, ``q_i`` itself, and points on one circle about ``q_{i+1}``:
    walks through those stay equally far from the destination, which the
    monotone-walk filter must drop.
    """

    def point():
        return Point(draw(coord) + draw(jitter), draw(coord) + draw(jitter))

    qi, qi1 = point(), point()
    radius = draw(st.sampled_from([10.0, 50.0, 100.0]))
    refs = []
    for ref_id in range(draw(st.integers(0, 4))):
        pts = [point() for __ in range(draw(st.integers(1, 8)))]
        if draw(st.booleans()):
            pts += [Point(2 * qi.x - p.x, 2 * qi.y - p.y) for p in pts[:3]]
        if draw(st.booleans()):
            circle = draw(st.lists(st.sampled_from(CIRCLE), min_size=1, max_size=5))
            pts += [Point(qi1.x + a * radius, qi1.y + b * radius) for a, b in circle]
        if draw(st.booleans()):
            pts.insert(0, qi)
        refs.append(
            Reference(
                ref_id=ref_id, source_ids=(ref_id,), points=tuple(pts), spliced=False
            )
        )
    return qi, qi1, refs


def _recording(nni):
    """Record, per ``match_walks`` call, the walks as coordinate lists."""
    walks = []
    match_walks = nni._walk_matcher.match_walks

    def record(batch):
        walks.append([[(p.x, p.y) for p in walk] for walk in batch])
        return match_walks(batch)

    nni._walk_matcher.match_walks = record
    return walks


class TestInferMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        nni_cases(),
        st.integers(1, 6),
        alphas,
        st.sampled_from([1.2, 1.5, 3.0]),
        st.booleans(),
    )
    def test_routes_walks_and_stats_equal(self, case, k, alpha, beta, share):
        qi, qi1, refs = case
        config = NNIConfig(
            k=k, alpha=alpha, beta=beta, share_substructures=share, max_paths=12
        )
        nni = NearestNeighborInference(_city(), config)
        ref = ReferenceNNI(_city(), config)
        got_walks, ref_walks = _recording(nni), _recording(ref)
        routes, stats = nni.infer(qi, qi1, refs)
        ref_routes, ref_stats = ref.infer(qi, qi1, refs)
        assert got_walks == ref_walks
        assert [r.segment_ids for r in routes] == [r.segment_ids for r in ref_routes]
        assert stats == ref_stats


def _hypot_sum(p, qi, qi1):
    return p.distance_to(qi) + p.distance_to(qi1)


def reference_nearest_index(traj, q, indices=None):
    """``Trajectory.nearest_index`` written with ``Point`` method calls."""
    obs = traj.points
    best_i = 0
    best_d = math.inf
    best_exact = None
    for i in range(len(obs)) if indices is None else indices:
        d = obs[i].point.squared_distance_to(q)
        if d < best_d:
            best_d = d
            best_i = i
            best_exact = None
        elif d == best_d:
            if best_exact is None:
                best_exact = obs[best_i].point.distance_to(q)
            exact = obs[i].point.distance_to(q)
            if exact < best_exact:
                best_exact = exact
                best_i = i
    return best_i


small_ints = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda t: (float(t[0]), float(t[1]))
)
#: Offsets whose squares underflow to 0.0, so squared distances tie.
tiny = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda t: (t[0] * 1e-170, t[1] * 1e-170)
)


class TestReferenceScreen:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(any_point, min_size=1, max_size=12), any_point, any_point, st.data()
    )
    @example(
        points=[Point(*ULP_POINT)], qi=Point(0.0, 0.0), qi1=Point(0.0, 0.0), data=None
    )
    def test_speed_ellipse_equals_distance_to_form(self, points, qi, qi1, data):
        # Budgets exactly at one point's hypot sum, and an ulp either side.
        pick = points[0] if data is None else data.draw(st.sampled_from(points))
        exact = _hypot_sum(pick, qi, qi1)
        for budget in (
            exact,
            math.nextafter(exact, -math.inf),
            math.nextafter(exact, math.inf),
        ):
            expected = all(_hypot_sum(p, qi, qi1) <= budget for p in points)
            assert within_speed_ellipse(points, qi, qi1, budget) == expected

    def test_speed_ellipse_budget_at_the_hypot_sum(self):
        # sqrt of the squared distance is an ulp below hypot here, so a
        # budget one ulp below the hypot sum must reject the point.
        p = Point(*ULP_POINT)
        origin = Point(0.0, 0.0)
        exact = 2.0 * math.hypot(*ULP_POINT)
        assert within_speed_ellipse([p], origin, origin, exact)
        assert not within_speed_ellipse(
            [p], origin, origin, math.nextafter(exact, 0.0)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(small_ints, st.tuples(finite, finite), tiny),
            min_size=1,
            max_size=14,
        ),
        st.one_of(st.just((0.0, 0.0)), small_ints, st.tuples(finite, finite)),
        st.data(),
    )
    def test_nearest_index_equals_point_form(self, coords, q, data):
        traj = Trajectory(
            0,
            tuple(GPSPoint(Point(x, y), float(t)) for t, (x, y) in enumerate(coords)),
        )
        qp = Point(*q)
        indices = None
        if data.draw(st.booleans()):
            hits = data.draw(st.sets(st.integers(0, len(coords) - 1), min_size=1))
            indices = sorted(hits)
        got = traj.nearest_index(qp, indices)
        assert got == reference_nearest_index(traj, qp, indices)
