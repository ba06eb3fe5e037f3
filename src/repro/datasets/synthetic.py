"""Synthetic evaluation scenarios (the paper's data substrate, rebuilt).

The paper evaluates on 3 months of Beijing taxi GPS plus GeoLife query
trajectories.  :func:`build_scenario` generates the equivalent laboratory:

* a synthetic city road network,
* an OD demand model whose route choice is **Zipf-skewed over a few
  alternatives per OD pair** — Observation 1 ("travel patterns between
  certain locations are often highly skewed") holds by construction,
* an archive of simulated taxi trips at **mixed sampling intervals**
  (the data-quality condition of Sec. I-B: high- and low-rate history
  co-exist), whose samples interleave across trips — Observation 2,
* background trips with random ODs (irrelevant traffic the inference must
  shrug off), and
* query cases: high-rate noisy drives over known routes, to be downsampled
  to each experiment's target interval, with the exact driven route as
  ground truth.

Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.archive import ArchiveBackend, TrajectoryArchive
from repro.roadnet.generators import GridCityConfig, grid_city
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route
from repro.roadnet.shortest_path import node_path_to_route
from repro.trajectory.model import Trajectory
from repro.trajectory.simulate import DriveConfig, drive_route

__all__ = [
    "QueryCase",
    "ScenarioConfig",
    "Scenario",
    "ScenarioError",
    "LengthScenario",
    "build_scenario",
    "build_length_scenario",
    "alternative_routes",
    "zipf_weights",
]


class ScenarioError(RuntimeError):
    """The generated network cannot carry the requested demand model."""


@dataclass(frozen=True, slots=True)
class QueryCase:
    """One evaluation query: a high-rate trajectory plus its true route."""

    query: Trajectory
    truth: Route


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Scenario generator parameters.

    Attributes:
        grid: Road-network generator config.
        n_od_pairs: Origin/destination pairs in the demand model.
        routes_per_od: Alternative routes generated per OD pair.
        zipf_s: Skew exponent of the route-choice distribution (larger =
            more skewed towards the top route; Observation 1).
        min_od_distance: Minimum straight-line OD separation in metres.
        n_archive_trips: Demand-model trips simulated into the archive.
        n_background_trips: Random-OD trips added as irrelevant traffic.
        archive_intervals: Sampling intervals (s) present in the archive.
        archive_interval_weights: Mixture weights of those intervals.
        gps_sigma: GPS noise std-dev in metres.
        query_interval: Sampling interval (s) of the high-rate queries.
        n_queries: Number of query cases generated.
        seed: Master random seed.
    """

    grid: GridCityConfig = GridCityConfig()
    n_od_pairs: int = 12
    routes_per_od: int = 3
    zipf_s: float = 1.5
    min_od_distance: float = 4_000.0
    n_archive_trips: int = 240
    n_background_trips: int = 30
    archive_intervals: Tuple[float, ...] = (30.0, 60.0, 120.0, 300.0)
    archive_interval_weights: Tuple[float, ...] = (0.25, 0.30, 0.30, 0.15)
    gps_sigma: float = 15.0
    query_interval: float = 15.0
    n_queries: int = 8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_od_pairs < 1 or self.routes_per_od < 1:
            raise ValueError("need at least one OD pair and one route per OD")
        if len(self.archive_intervals) != len(self.archive_interval_weights):
            raise ValueError("interval mixture lengths differ")
        if abs(sum(self.archive_interval_weights) - 1.0) > 1e-9:
            raise ValueError("interval weights must sum to 1")


@dataclass(slots=True)
class Scenario:
    """A fully built evaluation world."""

    network: RoadNetwork
    archive: ArchiveBackend
    od_routes: List[List[Route]]
    route_probabilities: List[np.ndarray]
    queries: List[QueryCase]
    config: ScenarioConfig


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf weights ``1/rank^s`` for ``n`` ranks."""
    if n < 1:
        raise ValueError("n must be at least 1")
    w = np.array([1.0 / (rank**s) for rank in range(1, n + 1)])
    return w / w.sum()


def alternative_routes(
    network: RoadNetwork,
    source: int,
    target: int,
    n: int,
    rng: np.random.Generator,
    spread: float = 0.25,
) -> List[Route]:
    """Up to ``n`` distinct plausible routes between two vertices.

    Routes model real driver behaviour: they minimise **travel time**
    (length / speed limit), not distance, so in a city with arterial speed
    classes the popular routes detour onto big roads and differ from the
    geometric shortest path — the regime in which the shortest-path
    assumption behind distance-based map matchers breaks down (the paper's
    motivation for HRIS).  The first route is the unperturbed time-optimal
    one; the rest come from time searches under randomly perturbed segment
    costs (``U(1, 1+spread)`` per segment, emulating day-to-day traffic).
    """
    routes: List[Route] = []
    seen: set = set()

    def add(route: Route) -> None:
        if route.segment_ids and route.segment_ids not in seen:
            seen.add(route.segment_ids)
            routes.append(route)

    fastest = _perturbed_fastest(network, source, target, None, rng)
    if fastest is None:
        return []
    add(fastest)

    attempts = 0
    while len(routes) < n and attempts < n * 6:
        attempts += 1
        factors = {
            seg.segment_id: 1.0 + spread * float(rng.random())
            for seg in network.segments()
        }
        route = _perturbed_fastest(network, source, target, factors, rng)
        if route is not None:
            add(route)
    return routes[:n]


def _perturbed_fastest(
    network: RoadNetwork,
    source: int,
    target: int,
    factors: Optional[dict],
    rng: np.random.Generator,
) -> Optional[Route]:
    """Dijkstra on (optionally perturbed) free-flow travel time."""
    import heapq

    dist = {source: 0.0}
    prev: dict = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            node_path = [target]
            while node_path[-1] != source:
                node_path.append(prev[node_path[-1]])
            node_path.reverse()
            return node_path_to_route(network, node_path)
        for sid in network.out_segments(u):
            seg = network.segment(sid)
            cost = seg.travel_time
            if factors is not None:
                cost *= factors[sid]
            nd = d + cost
            if nd < dist.get(seg.end, math.inf):
                dist[seg.end] = nd
                prev[seg.end] = u
                heapq.heappush(heap, (nd, seg.end))
    return None


def _pick_od_pairs(
    network: RoadNetwork, config: ScenarioConfig, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    node_ids = [n.node_id for n in network.nodes()]
    pairs: List[Tuple[int, int]] = []
    attempts = 0
    while len(pairs) < config.n_od_pairs and attempts < config.n_od_pairs * 50:
        attempts += 1
        a, b = rng.choice(node_ids, size=2, replace=False)
        a, b = int(a), int(b)
        separation = network.node(a).point.distance_to(network.node(b).point)
        if separation >= config.min_od_distance:
            pairs.append((a, b))
    if len(pairs) < config.n_od_pairs:
        raise ScenarioError(
            "could not find enough OD pairs at the requested separation; "
            "lower min_od_distance or enlarge the network"
        )
    return pairs


def build_scenario(config: ScenarioConfig = ScenarioConfig()) -> Scenario:
    """Generate network, demand model, archive and query cases.

    Raises:
        ScenarioError: When the network holds too few OD pairs at the
            requested separation, or none of them is routable.
    """
    rng = np.random.default_rng(config.seed)
    network = grid_city(config.grid, rng)

    od_pairs = _pick_od_pairs(network, config, rng)
    od_routes: List[List[Route]] = []
    route_probabilities: List[np.ndarray] = []
    for source, target in od_pairs:
        routes = alternative_routes(network, source, target, config.routes_per_od, rng)
        if not routes:
            continue
        od_routes.append(routes)
        route_probabilities.append(zipf_weights(len(routes), config.zipf_s))
    if not od_routes:
        raise ScenarioError("no routable OD pairs were generated")

    interval_weights = np.array(config.archive_interval_weights)
    archive = TrajectoryArchive()
    traj_id = 0

    def simulate_trip(route: Route, interval: float) -> Trajectory:
        nonlocal traj_id
        start = float(rng.uniform(0.0, 86_400.0))
        drive = drive_route(
            network,
            route,
            traj_id,
            start_time=start,
            config=DriveConfig(
                sample_interval_s=interval,
                gps_sigma_m=config.gps_sigma,
            ),
            rng=rng,
        )
        traj_id += 1
        return drive.trajectory

    # Demand-model trips: OD uniform, route Zipf, interval from the mixture.
    for __ in range(config.n_archive_trips):
        od_idx = int(rng.integers(len(od_routes)))
        route_idx = int(rng.choice(len(od_routes[od_idx]), p=route_probabilities[od_idx]))
        interval = float(rng.choice(config.archive_intervals, p=interval_weights))
        archive.add(simulate_trip(od_routes[od_idx][route_idx], interval))

    # Background noise: random short ODs, random routes.
    node_ids = [n.node_id for n in network.nodes()]
    added = 0
    while added < config.n_background_trips:
        a, b = rng.choice(node_ids, size=2, replace=False)
        routes = alternative_routes(network, int(a), int(b), 1, rng)
        if not routes:
            continue
        interval = float(rng.choice(config.archive_intervals, p=interval_weights))
        archive.add(simulate_trip(routes[0], interval))
        added += 1

    # Query cases: same demand model, high-rate sampling, exact ground truth.
    queries: List[QueryCase] = []
    for __ in range(config.n_queries):
        od_idx = int(rng.integers(len(od_routes)))
        route_idx = int(rng.choice(len(od_routes[od_idx]), p=route_probabilities[od_idx]))
        route = od_routes[od_idx][route_idx]
        drive = drive_route(
            network,
            route,
            traj_id,
            start_time=float(rng.uniform(0.0, 86_400.0)),
            config=DriveConfig(
                sample_interval_s=config.query_interval,
                gps_sigma_m=config.gps_sigma,
            ),
            rng=rng,
        )
        traj_id += 1
        queries.append(QueryCase(query=drive.trajectory, truth=drive.route))

    return Scenario(
        network=network,
        archive=archive,
        od_routes=od_routes,
        route_probabilities=route_probabilities,
        queries=queries,
        config=config,
    )


@dataclass(slots=True)
class LengthScenario:
    """A world with query cases grouped by target route length (Fig. 8b)."""

    network: RoadNetwork
    archive: ArchiveBackend
    cases_by_length: dict


def build_length_scenario(
    lengths_m: Sequence[float],
    queries_per_length: int = 4,
    ods_per_length: int = 2,
    trips_per_od: int = 20,
    routes_per_od: int = 3,
    zipf_s: float = 1.5,
    length_tolerance: float = 0.2,
    grid: Optional[GridCityConfig] = None,
    seed: int = 97,
) -> LengthScenario:
    """Build a large-extent world with queries at controlled route lengths.

    Used by the query-length experiment (the paper's Fig. 8b, 10–30 km):
    for every target length, OD pairs whose fastest route falls within
    ``length_tolerance`` of the target are selected, populated with archive
    demand and queried.

    Raises:
        RuntimeError: When no OD pair matching a target length exists on
            the generated network (enlarge the grid).
    """
    rng = np.random.default_rng(seed)
    grid = grid if grid is not None else GridCityConfig(
        nx=20, ny=20, spacing=1_500.0, arterial_every=4, drop_fraction=0.05
    )
    network = grid_city(grid, rng)
    node_ids = [n.node_id for n in network.nodes()]
    archive = TrajectoryArchive()
    interval_choices = (30.0, 60.0, 120.0, 300.0)
    interval_weights = np.array((0.25, 0.30, 0.30, 0.15))
    cases_by_length: dict = {}
    traj_id = 0

    def add_trip(route: Route, interval: float) -> None:
        nonlocal traj_id
        drive = drive_route(
            network,
            route,
            traj_id,
            start_time=float(rng.uniform(0.0, 86_400.0)),
            config=DriveConfig(sample_interval_s=interval, gps_sigma_m=15.0),
            rng=rng,
        )
        archive.add(drive.trajectory)
        traj_id += 1

    for target in lengths_m:
        found = []
        attempts = 0
        while len(found) < ods_per_length and attempts < 400:
            attempts += 1
            a, b = rng.choice(node_ids, size=2, replace=False)
            a, b = int(a), int(b)
            separation = network.node(a).point.distance_to(network.node(b).point)
            # Grid routes run ~1.2-1.5x the straight line; pre-filter.
            if not (target / 1.7 <= separation <= target / 1.02):
                continue
            routes = alternative_routes(network, a, b, routes_per_od, rng)
            if not routes:
                continue
            if abs(routes[0].length(network) - target) > length_tolerance * target:
                continue
            found.append(routes)
        if not found:
            raise RuntimeError(
                f"no OD pair with a ~{target:.0f} m fastest route; enlarge "
                "the network"
            )

        probs = [zipf_weights(len(routes), zipf_s) for routes in found]
        for routes, p in zip(found, probs):
            for __ in range(trips_per_od):
                idx = int(rng.choice(len(routes), p=p))
                interval = float(rng.choice(interval_choices, p=interval_weights))
                add_trip(routes[idx], interval)

        cases = []
        for q in range(queries_per_length):
            od_idx = q % len(found)
            routes = found[od_idx]
            idx = int(rng.choice(len(routes), p=probs[od_idx]))
            drive = drive_route(
                network,
                routes[idx],
                traj_id,
                start_time=float(rng.uniform(0.0, 86_400.0)),
                config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=15.0),
                rng=rng,
            )
            traj_id += 1
            cases.append(QueryCase(query=drive.trajectory, truth=drive.route))
        cases_by_length[float(target)] = cases

    return LengthScenario(
        network=network, archive=archive, cases_by_length=cases_by_length
    )
