"""Taxi-fleet map matching: the paper's evaluation scenario end to end.

Simulates a fleet of taxis whose raw GPS logs contain multiple trips with
parking periods in between (so the stay-point trip partitioning of the
preprocessing component actually runs), builds the archive from the raw
logs, and compares HRIS against the incremental / ST-matching / IVMM
baselines across sampling intervals — a miniature of the paper's Fig. 8a.

Run:  python examples/taxi_fleet_map_matching.py
"""

import numpy as np

from repro import HRIS, HRISConfig, HRISMatcher, TrajectoryArchive
from repro.datasets import alternative_routes, zipf_weights
from repro.eval import ExperimentTable, evaluate_accuracy
from repro.datasets import QueryCase
from repro.mapmatching import IncrementalMatcher, IVMMMatcher, STMatcher
from repro.roadnet import GridCityConfig, grid_city
from repro.trajectory import DriveConfig, GPSPoint, Trajectory, drive_route, shift_time


def simulate_taxi_shift(network, routes, probs, taxi_id, rng):
    """A taxi working a shift: several trips separated by idle parking."""
    log_points = []
    t = float(rng.uniform(0.0, 3_600.0))
    for __ in range(int(rng.integers(2, 4))):
        od_idx = int(rng.integers(len(routes)))
        route_idx = int(rng.choice(len(routes[od_idx]), p=probs[od_idx]))
        interval = float(rng.choice([30.0, 60.0, 120.0]))
        drive = drive_route(
            network,
            routes[od_idx][route_idx],
            taxi_id,
            start_time=t,
            config=DriveConfig(sample_interval_s=interval, gps_sigma_m=15.0),
            rng=rng,
        )
        log_points.extend(drive.trajectory.points)
        # Park for ~25 minutes at the drop-off: idle samples in one spot.
        end = drive.trajectory.points[-1]
        t = end.t
        for __i in range(5):
            t += 300.0
            jitter = rng.normal(0.0, 8.0, size=2)
            log_points.append(
                GPSPoint(end.point.translate(float(jitter[0]), float(jitter[1])), t)
            )
        t += 60.0
    return Trajectory.build(taxi_id, log_points)


def main() -> None:
    rng = np.random.default_rng(2024)
    print("Generating the city and the OD demand model...")
    network = grid_city(GridCityConfig(nx=14, ny=14), rng)
    node_ids = [n.node_id for n in network.nodes()]

    od_routes = []
    while len(od_routes) < 6:
        a, b = rng.choice(node_ids, size=2, replace=False)
        if network.node(int(a)).point.distance_to(network.node(int(b)).point) < 4000:
            continue
        routes = alternative_routes(network, int(a), int(b), 3, rng)
        if routes:
            od_routes.append(routes)
    probs = [zipf_weights(len(r), 1.5) for r in od_routes]

    print("Simulating 60 taxi shifts (raw logs with parking gaps)...")
    logs = [
        simulate_taxi_shift(network, od_routes, probs, taxi_id, rng)
        for taxi_id in range(60)
    ]

    print("Preprocessing: stay-point trip partition + point-grid indexing...")
    archive = TrajectoryArchive.from_raw_logs(logs)
    print(
        f"  {len(logs)} raw logs -> {len(archive)} trips "
        f"({archive.num_points} points)"
    )

    print("Generating evaluation queries with exact ground truth...")
    cases = []
    for q in range(8):
        od_idx = q % len(od_routes)
        route_idx = int(rng.choice(len(od_routes[od_idx]), p=probs[od_idx]))
        drive = drive_route(
            network,
            od_routes[od_idx][route_idx],
            10_000 + q,
            config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=15.0),
            rng=rng,
        )
        cases.append(QueryCase(query=drive.trajectory, truth=drive.route))

    matchers = {
        "HRIS": HRISMatcher(HRIS(network, archive, HRISConfig())),
        "IVMM": IVMMMatcher(network),
        "ST-matching": STMatcher(network),
        "incremental": IncrementalMatcher(network),
    }

    table = ExperimentTable("Taxi fleet: accuracy vs sampling interval", "interval_min")
    for interval in (180.0, 300.0, 600.0, 900.0):
        for name, matcher in matchers.items():
            acc = evaluate_accuracy(network, matcher, cases, interval)
            table.record(int(interval // 60), name, acc)
    print()
    print(table.format())


if __name__ == "__main__":
    main()
