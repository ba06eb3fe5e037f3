"""Infrastructure micro-benchmarks.

Not paper figures — performance tracking for the substrates every
experiment stands on.  pytest-benchmark records proper statistics here
(many rounds), unlike the figure benchmarks which only need one
representative kernel.
"""

import numpy as np
import pytest

from repro.core.reference import ReferenceSearch, ReferenceSearchConfig
from repro.geo.point import Point
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.roadnet.ksp import yen_k_shortest_paths
from repro.roadnet.shortest_path import dijkstra
from repro.spatial.grid import GridIndex


@pytest.fixture(scope="module")
def big_network():
    return grid_city(GridCityConfig(nx=30, ny=30), np.random.default_rng(3))


@pytest.fixture(scope="module")
def points_50k():
    rng = np.random.default_rng(5)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 20_000, size=(50_000, 2))]


def _grid_50k(points):
    # 500 m cells: the archive's cell size (Table II's phi).
    grid: GridIndex[int] = GridIndex(500.0)
    grid.extend((p, i) for i, p in enumerate(points))
    return grid


def test_grid_build_50k(benchmark, points_50k):
    grid = benchmark(lambda: _grid_50k(points_50k))
    assert len(grid) == 50_000


def test_grid_radius_query(benchmark, points_50k):
    grid = _grid_50k(points_50k)
    center = Point(10_000.0, 10_000.0)

    result = benchmark(lambda: grid.search_radius(center, 500.0))
    assert result  # the uniform cloud guarantees hits


def test_dijkstra_900_nodes(benchmark, big_network):
    d, path = benchmark(lambda: dijkstra(big_network, 0, 899))
    assert path


def test_yen_k5_on_network(benchmark, big_network):
    def adjacency(node):
        return (
            (big_network.segment(s).end, big_network.segment(s).length)
            for s in big_network.out_segments(node)
        )

    paths = benchmark.pedantic(
        lambda: yen_k_shortest_paths(adjacency, 0, 464, 5), rounds=3, iterations=1
    )
    assert len(paths) == 5


def test_reference_search(benchmark, scenario_std):
    sc = scenario_std
    search = ReferenceSearch(
        sc.archive, sc.network, ReferenceSearchConfig(phi=500.0)
    )
    q = sc.queries[0].query
    qi, qi1 = q[0], q[len(q) - 1]

    refs = benchmark(lambda: search.search(qi, qi1))
    assert isinstance(refs, list)
