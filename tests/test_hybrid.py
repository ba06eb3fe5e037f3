"""Unit tests for the hybrid local inference dispatch."""

import math

import pytest

from repro.core.hybrid import HybridConfig, HybridInference, reference_density_per_km2
from repro.core.nni import NNIConfig
from repro.core.reference import Reference
from repro.core.traverse_graph import TGIConfig
from repro.geo.point import Point
from repro.roadnet.generators import manhattan_line


def make_ref(points, ref_id=0):
    return Reference(
        ref_id=ref_id, source_ids=(ref_id,), points=tuple(points), spliced=False
    )


class TestDensity:
    def test_empty_is_zero(self):
        assert reference_density_per_km2([]) == 0.0

    def test_degenerate_box_is_infinite(self):
        ref = make_ref([Point(5, 5), Point(5, 5)])
        assert math.isinf(reference_density_per_km2([ref]))

    def test_known_density(self):
        # 10 points spread over a 1 km x 1 km box -> 10 per km^2.
        pts = [Point(0, 0), Point(1000, 1000)] + [
            Point(100.0 * i, 500.0) for i in range(1, 9)
        ]
        ref = make_ref(pts)
        assert math.isclose(reference_density_per_km2([ref]), 10.0)

    def test_density_additive_in_points(self):
        base = [Point(0, 0), Point(1000, 1000)]
        a = make_ref(base + [Point(500, 500)])
        b = make_ref(base + [Point(500, 500), Point(400, 400), Point(600, 600)])
        assert reference_density_per_km2([b]) > reference_density_per_km2([a])


class TestDispatch:
    @pytest.fixture()
    def line(self):
        return manhattan_line(n_nodes=10, spacing=200.0)

    def dense_refs(self):
        # Hundreds of points inside a small box -> very high density.
        refs = []
        for k in range(6):
            pts = [Point(i * 60.0, 6.0 * k) for i in range(18)]
            refs.append(make_ref(pts, ref_id=k))
        return refs

    def sparse_refs(self):
        # A handful of points over a wide 2-D area -> low density.  (A
        # perfectly collinear pool would have a zero-area bounding box and
        # count as infinitely dense.)
        return [
            make_ref(
                [Point(i * 250.0, 8.0 + 30.0 * (i % 2)) for i in range(5)],
                ref_id=0,
            )
        ]

    def test_dense_uses_nni(self, line):
        # Prose-literal dispatch (see repro.core.hybrid docstring): dense
        # reference pools go to NNI, sparse ones to TGI.
        hybrid = HybridInference(line, HybridConfig(tau=200.0))
        routes, method = hybrid.infer(Point(0, 0), Point(1000, 0), self.dense_refs())
        assert method == "nni"
        assert routes

    def test_sparse_uses_tgi(self, line):
        hybrid = HybridInference(line, HybridConfig(tau=200.0))
        routes, method = hybrid.infer(Point(0, 0), Point(1000, 0), self.sparse_refs())
        assert method == "tgi"
        assert routes

    def test_tau_extremes_flip_dispatch(self, line):
        refs = self.sparse_refs()
        always_nni = HybridInference(line, HybridConfig(tau=0.0))
        __, method = always_nni.infer(Point(0, 0), Point(1000, 0), refs)
        assert method == "nni"

    def test_fallback_to_other_method(self, line):
        # No references at all: NNI yields nothing, hybrid tries TGI, both
        # empty — the caller gets an empty result rather than an error.
        hybrid = HybridInference(line, HybridConfig(tau=200.0))
        routes, method = hybrid.infer(Point(0, 0), Point(1000, 0), [])
        assert routes == []


class TestConfig:
    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError):
            HybridConfig(tau=math.nan)
