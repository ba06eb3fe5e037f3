"""Unit tests for the scoring functions (equations 1 and 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import Reference
from repro.core.scoring import (
    compute_segment_support,
    popularity,
    route_support,
    score_local_routes,
    transition_confidence,
)
from repro.geo.point import Point
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import manhattan_line
from repro.roadnet.route import Route


def support_from_counts(counts):
    """Build a segment_support dict where segment i is travelled by the
    first counts[i] reference ids."""
    return {i: set(range(c)) for i, c in enumerate(counts)}


class TestPopularity:
    def test_no_support_is_zero(self):
        assert popularity(Route.of([0, 1]), {}) == 0.0

    def test_negative_floor_raises(self):
        with pytest.raises(ValueError):
            popularity(Route.of([0]), {0: {1}}, entropy_floor=-1.0)

    def test_uniform_beats_bursty_fig6(self):
        # Fig. 6: stable traffic (R_a) must outscore a burst (R_b) when the
        # total number of supporting references is the same.
        uniform = support_from_counts([4, 4, 4])
        bursty = {0: set(range(4)), 1: {0}, 2: {1}}
        r = Route.of([0, 1, 2])
        assert popularity(r, uniform) > popularity(r, bursty)

    def test_more_references_scores_higher(self):
        few = support_from_counts([2, 2, 2])
        many = support_from_counts([8, 8, 8])
        r = Route.of([0, 1, 2])
        assert popularity(r, many) > popularity(r, few)

    def test_single_segment_normalized(self):
        # A single supported segment is trivially uniform: f = |C|.
        assert popularity(Route.of([0]), {0: {0, 1, 2}}) == 3.0

    def test_single_segment_raw_formula_is_zero(self):
        # The literal equation (1): one segment has zero entropy.
        assert popularity(Route.of([0]), {0: {0, 1, 2}}, normalize=False) == 0.0

    def test_raw_formula_grows_with_length(self):
        # The documented bias of the unnormalised formula.
        short = popularity(Route.of([0, 1]), support_from_counts([3, 3]), normalize=False)
        long = popularity(
            Route.of([0, 1, 2, 3]), support_from_counts([3, 3, 3, 3]), normalize=False
        )
        assert long > short

    def test_normalized_formula_length_invariant_for_uniform(self):
        short = popularity(Route.of([0, 1]), support_from_counts([3, 3]))
        long = popularity(
            Route.of([0, 1, 2, 3]), support_from_counts([3, 3, 3, 3])
        )
        assert math.isclose(short, long)

    def test_unsupported_padding_penalised(self):
        tight = popularity(Route.of([0, 1]), support_from_counts([3, 3]))
        padded = popularity(Route.of([0, 1, 99]), support_from_counts([3, 3]))
        assert padded < tight

    def test_entropy_floor_applies(self):
        # Bursty single-dominant support would give near-zero entropy; the
        # floor keeps the score positive.
        support = {0: set(range(100)), 1: {0}}
        low = popularity(Route.of([0, 1]), support, entropy_floor=0.0, normalize=False)
        floored = popularity(
            Route.of([0, 1]), support, entropy_floor=0.5, normalize=False
        )
        assert floored >= 0.5 * 101 * 0.99 or floored > low


class TestRouteSupport:
    def test_union(self):
        support = {0: {1, 2}, 1: {2, 3}}
        assert route_support(Route.of([0, 1]), support) == frozenset({1, 2, 3})

    def test_missing_segments_ignored(self):
        assert route_support(Route.of([42]), {}) == frozenset()


class TestTransitionConfidence:
    def test_identical_sets_is_one(self):
        s = frozenset({1, 2, 3})
        assert math.isclose(transition_confidence(s, s), 1.0)

    def test_disjoint_is_inverse_e(self):
        a = frozenset({1})
        b = frozenset({2})
        assert math.isclose(transition_confidence(a, b), math.exp(-1))

    def test_both_empty_is_inverse_e(self):
        assert math.isclose(
            transition_confidence(frozenset(), frozenset()), math.exp(-1)
        )

    def test_range(self):
        a = frozenset({1, 2})
        b = frozenset({2, 3})
        g = transition_confidence(a, b)
        assert math.exp(-1) <= g <= 1.0

    def test_symmetry(self):
        a = frozenset({1, 2, 5})
        b = frozenset({2, 3})
        assert transition_confidence(a, b) == transition_confidence(b, a)

    @given(
        st.frozensets(st.integers(0, 20), max_size=10),
        st.frozensets(st.integers(0, 20), max_size=10),
    )
    def test_monotone_in_overlap(self, a, b):
        g = transition_confidence(a, b)
        assert math.exp(-1) - 1e-12 <= g <= 1.0 + 1e-12
        # Adding a shared element never decreases confidence.
        shared = frozenset({999})
        g2 = transition_confidence(a | shared, b | shared)
        assert g2 >= g - 1e-12


class TestComputeSegmentSupport:
    def test_counts_each_reference_once(self):
        line = manhattan_line(n_nodes=5, spacing=200.0)
        ref = Reference(
            ref_id=7,
            source_ids=(0,),
            points=tuple(Point(i * 100.0, 5.0) for i in range(9)),
            spliced=False,
        )
        support = compute_segment_support(RoutingEngine(line), [ref], 50.0)
        assert support
        for sids in support.values():
            assert sids == {7}

    def test_empty_references(self):
        line = manhattan_line(3)
        assert compute_segment_support(RoutingEngine(line), [], 50.0) == {}


class TestScoreLocalRoutes:
    def test_sorted_by_popularity(self):
        support = support_from_counts([5, 5, 1, 1])
        routes = [Route.of([2, 3]), Route.of([0, 1])]
        scored = score_local_routes(routes, support)
        assert scored[0].route.segment_ids == (0, 1)
        assert scored[0].popularity >= scored[1].popularity

    def test_support_recorded(self):
        support = {0: {1, 2}}
        scored = score_local_routes([Route.of([0])], support)
        assert scored[0].support == frozenset({1, 2})
