"""Shared fixtures for the HRIS core tests.

``corridor_world`` builds a small deterministic world: a 10x6 grid city, an
archive of simulated trips over two alternative routes of one OD pair
(heavily skewed towards the first), and a high-rate query driven on the
popular route.  ``islands`` is two unconnected two-way roads and the
``[x, y, t]`` rows of a query with one point on each: no route joins
them.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.archive import TrajectoryArchive
from repro.datasets.synthetic import alternative_routes
from repro.geo.point import Point
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.roadnet.network import RoadNetwork, RoadNode, RoadSegment
from repro.roadnet.route import Route
from repro.trajectory.model import Trajectory
from repro.trajectory.simulate import DriveConfig, drive_route


@dataclass
class CorridorWorld:
    network: RoadNetwork
    archive: TrajectoryArchive
    routes: List[Route]          # alternative routes, most popular first
    query: Trajectory            # high-rate noisy drive on routes[0]
    truth: Route


@pytest.fixture(scope="session")
def corridor_world() -> CorridorWorld:
    rng = np.random.default_rng(1234)
    network = grid_city(
        GridCityConfig(nx=10, ny=6, drop_fraction=0.05, arterial_every=3), rng
    )
    source, target = 0, 59
    routes = alternative_routes(network, source, target, 3, rng)
    assert routes, "corridor world needs at least one route"

    archive = TrajectoryArchive()
    counts = [14, 4, 2][: len(routes)]
    tid = 0
    for route, n in zip(routes, counts):
        for __ in range(n):
            drive = drive_route(
                network,
                route,
                tid,
                start_time=float(rng.uniform(0, 86_400)),
                config=DriveConfig(sample_interval_s=60.0, gps_sigma_m=12.0),
                rng=rng,
            )
            archive.add(drive.trajectory)
            tid += 1

    query_drive = drive_route(
        network,
        routes[0],
        9999,
        config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=12.0),
        rng=rng,
    )
    return CorridorWorld(
        network=network,
        archive=archive,
        routes=routes,
        query=query_drive.trajectory,
        truth=query_drive.route,
    )


@pytest.fixture(scope="session")
def islands() -> Tuple[RoadNetwork, List[List[float]]]:
    """Two-way roads (0,0)–(500,0) and (5000,0)–(5500,0), not connected,
    and a query with one point next to each."""
    network = RoadNetwork()
    for node_id, x in enumerate((0.0, 500.0, 5000.0, 5500.0)):
        network.add_node(RoadNode(node_id, Point(x, 0.0)))
    segment_id = 0
    for a, b in ((0, 1), (2, 3)):
        for start, end in ((a, b), (b, a)):
            polyline = [network.node(start).point, network.node(end).point]
            network.add_segment(
                RoadSegment.build(segment_id, start, end, polyline, 14.0)
            )
            segment_id += 1
    return network, [[250.0, 1.0, 0.0], [5250.0, 1.0, 600.0]]
