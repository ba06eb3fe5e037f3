"""Unit and property tests for K-GRI (Algorithm 3).

The central correctness property — guaranteed by the downward-closure
argument in the paper — is that the dynamic program returns exactly the
same top-K (scores) as brute-force enumeration.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kgri import brute_force_global_routes, k_gri
from repro.core.scoring import LocalRoute
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import manhattan_line
from repro.roadnet.route import Route


@pytest.fixture(scope="module")
def line():
    return manhattan_line(n_nodes=12, spacing=100.0)


@pytest.fixture(scope="module")
def engine(line):
    return RoutingEngine(line)


def lr(segments, pop, support):
    return LocalRoute(
        route=Route.of(segments), popularity=pop, support=frozenset(support)
    )


def simple_stages():
    # Stage 1: two local routes; stage 2: two local routes.  Route pairs
    # sharing references get high transition confidence.
    return [
        [lr([0], 10.0, {1, 2, 3}), lr([2], 8.0, {4, 5})],
        [lr([4], 9.0, {1, 2, 3}), lr([6], 9.5, {6})],
    ]


class TestValidation:
    def test_k_zero_raises(self, engine):
        with pytest.raises(ValueError):
            k_gri(engine, simple_stages(), 0)

    def test_empty_stage_raises(self, engine):
        with pytest.raises(ValueError):
            k_gri(engine, [[], simple_stages()[1]], 1)

    def test_no_stages_raises(self, engine):
        with pytest.raises(ValueError):
            k_gri(engine, [], 1)

    def test_brute_force_combination_cap(self, engine):
        stage = [lr([0], 1.0, {i}) for i in range(20)]
        with pytest.raises(ValueError, match="brute force"):
            brute_force_global_routes(engine, [stage] * 6, 1, max_combinations=1000)


class TestBasics:
    def test_single_stage(self, engine):
        stages = [simple_stages()[0]]
        got = k_gri(engine, stages, 2)
        assert len(got) == 2
        assert got[0].local_indices == (0,)
        assert got[0].log_score >= got[1].log_score

    def test_transition_shapes_choice(self, engine):
        # Stage-2 route 1 has slightly higher popularity but shares no
        # references with stage-1 route 0; the shared-support combination
        # must win overall.
        got = k_gri(engine, simple_stages(), 1)
        assert got[0].local_indices == (0, 0)

    def test_scores_sorted(self, engine):
        got = k_gri(engine, simple_stages(), 4)
        scores = [g.log_score for g in got]
        assert scores == sorted(scores, reverse=True)

    def test_route_assembled_and_connected(self, line, engine):
        stages = [
            [lr([0, 2], 5.0, {1})],
            [lr([6, 8], 5.0, {1})],
        ]
        got = k_gri(engine, stages, 1)
        assert got[0].route.is_connected(line)
        assert got[0].route.first == 0
        assert got[0].route.last == 8

    def test_score_property(self, engine):
        got = k_gri(engine, simple_stages(), 1)[0]
        assert math.isclose(got.score, math.exp(got.log_score))

    def test_k_larger_than_combinations(self, engine):
        got = k_gri(engine, simple_stages(), 50)
        assert len(got) == 4  # 2 x 2 combinations exist


@st.composite
def random_stages(draw):
    n_stages = draw(st.integers(1, 4))
    stages = []
    seg = 0
    for __ in range(n_stages):
        n_routes = draw(st.integers(1, 4))
        stage = []
        for __r in range(n_routes):
            pop = draw(st.floats(0.1, 50.0))
            support = draw(st.frozensets(st.integers(0, 8), max_size=5))
            stage.append(lr([seg % 22], pop, support))
            seg += 2
        stages.append(stage)
    return stages


class TestDifferentialVsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(random_stages(), st.integers(1, 5))
    def test_same_topk_scores(self, stages, k):
        engine = RoutingEngine(manhattan_line(n_nodes=12, spacing=100.0))
        dp = k_gri(engine, stages, k)
        bf = brute_force_global_routes(engine, stages, k)
        assert len(dp) == len(bf)
        for a, b in zip(dp, bf):
            assert math.isclose(a.log_score, b.log_score, rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(random_stages())
    def test_top1_identical_choice(self, stages):
        engine = RoutingEngine(manhattan_line(n_nodes=12, spacing=100.0))
        dp = k_gri(engine, stages, 1)[0]
        bf = brute_force_global_routes(engine, stages, 1)[0]
        assert math.isclose(dp.log_score, bf.log_score, rel_tol=1e-9, abs_tol=1e-9)
