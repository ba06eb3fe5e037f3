"""Unit tests for the HRIS system facade."""

import math
from collections import Counter

import pytest

from repro.core.archive import InMemoryArchive
from repro.core.nni import NearestNeighborInference
from repro.core.system import HRIS, HRISConfig, HRISMatcher, NoLocalRouteError
from repro.core.traverse_graph import TraverseGraphInference
from repro.eval.metrics import precision_recall, route_accuracy
from repro.mapmatching.hmm import HMMMatcher
from repro.trajectory.io import trajectory_from_dict
from repro.trajectory.model import Trajectory
from repro.trajectory.resample import downsample


@pytest.fixture(scope="module")
def hris(corridor_world):
    return HRIS(corridor_world.network, corridor_world.archive, HRISConfig())


@pytest.fixture(scope="module")
def low_query(corridor_world):
    return downsample(corridor_world.query, 180.0)


class TestConfig:
    def test_invalid_method(self):
        with pytest.raises(ValueError):
            HRISConfig(local_method="bogus")

    # NaN passes every ordering check unnoticed: a NaN α or β would switch
    # NNI's filters off, a NaN τ would send every pair to NNI.
    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            HRISConfig(alpha=math.nan)

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError):
            HRISConfig(beta=math.nan)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError):
            HRISConfig(tau=math.nan)

    def test_infinite_alpha_allowed(self):
        assert HRISConfig(alpha=math.inf).nni_config().alpha == math.inf

    def test_table2_defaults(self):
        # Table II of the paper.
        cfg = HRISConfig()
        assert cfg.phi == 500.0
        assert cfg.tau == 200.0
        assert cfg.lam == 4
        assert cfg.k1 == 5
        assert cfg.k2 == 4
        assert cfg.k3 == 5
        assert cfg.alpha == 500.0
        assert cfg.beta == 1.5

    def test_subconfig_derivation(self):
        cfg = HRISConfig(lam=6, k1=3, k2=2, alpha=100.0, beta=2.0)
        assert cfg.tgi_config().lam == 6
        assert cfg.tgi_config().k_shortest == 3
        assert cfg.nni_config().k == 2
        assert cfg.nni_config().alpha == 100.0
        assert cfg.reference_config().phi == cfg.phi


class TestComponents:
    @pytest.mark.parametrize("method", ["hybrid", "tgi", "nni"])
    def test_one_local_inference_pair_per_instance(
        self, corridor_world, monkeypatch, method
    ):
        built = []
        for cls in (TraverseGraphInference, NearestNeighborInference, HMMMatcher):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        hris = HRIS(
            corridor_world.network,
            corridor_world.archive,
            HRISConfig(local_method=method),
        )
        hris.worker_clone()
        # Two instances (original and clone), each with one TGI, one NNI
        # and the NNI's walk matcher, whatever the local method.
        assert Counter(built) == {
            "TraverseGraphInference": 2,
            "NearestNeighborInference": 2,
            "HMMMatcher": 2,
        }


class TestInference:
    def test_short_query_raises(self, hris, corridor_world):
        single = corridor_world.query.slice(0, 0)
        with pytest.raises(ValueError):
            hris.infer_routes(single)

    def test_returns_k_routes(self, hris, low_query):
        routes = hris.infer_routes(low_query, 3)
        assert 1 <= len(routes) <= 3
        scores = [r.log_score for r in routes]
        assert scores == sorted(scores, reverse=True)

    def test_default_k_is_k3(self, hris, low_query):
        routes = hris.infer_routes(low_query)
        assert len(routes) <= hris.config.k3

    def test_routes_connected(self, hris, low_query, corridor_world):
        for g in hris.infer_routes(low_query, 3):
            assert g.route.is_connected(corridor_world.network)

    def test_top1_recovers_truth(self, hris, low_query, corridor_world):
        top = hris.infer_routes(low_query, 1)[0]
        acc = route_accuracy(corridor_world.network, corridor_world.truth, top.route)
        assert acc > 0.7
        __, recall = precision_recall(
            corridor_world.network, corridor_world.truth, top.route
        )
        assert recall > 0.8

    def test_details_populated(self, hris, low_query):
        routes, detail = hris.infer_routes_with_details(low_query, 2)
        assert routes
        assert len(detail.pairs) == len(low_query) - 1
        assert detail.total_time_s > 0.0
        for pair in detail.pairs:
            assert pair.method in ("tgi", "nni", "hybrid", "fallback")
            assert pair.n_local_routes >= 1

    def test_deterministic(self, hris, low_query):
        a = hris.infer_routes(low_query, 2)
        b = hris.infer_routes(low_query, 2)
        assert [r.route.segment_ids for r in a] == [r.route.segment_ids for r in b]

    def test_local_method_forcing(self, corridor_world, low_query):
        for method in ("tgi", "nni"):
            hris = HRIS(
                corridor_world.network,
                corridor_world.archive,
                HRISConfig(local_method=method),
            )
            routes = hris.infer_routes(low_query, 1)
            assert routes

    def test_no_history_falls_back_to_shortest_path(self, corridor_world, low_query):
        from repro.core.archive import TrajectoryArchive

        hris = HRIS(corridor_world.network, TrajectoryArchive(), HRISConfig())
        routes, detail = hris.infer_routes_with_details(low_query, 1)
        assert routes
        assert all(p.fallback for p in detail.pairs)


    def test_unroutable_pair_raises_typed_error(self, islands):
        # No history and no road between the two points: the one failure
        # the local stage cannot fall back from.
        network, points = islands
        hris = HRIS(network, InMemoryArchive(), HRISConfig())
        query = trajectory_from_dict({"id": 0, "points": points})
        with pytest.raises(NoLocalRouteError, match="no local route"):
            hris.infer_routes(query)
        assert issubclass(NoLocalRouteError, RuntimeError)


class TestMatcherAdapter:
    def test_match_interface(self, hris, low_query, corridor_world):
        matcher = HRISMatcher(hris)
        result = matcher.match(low_query)
        assert result.route.is_connected(corridor_world.network)
        assert len(result.matched) == len(low_query)
