"""Experiment harness: shared machinery for the paper's figures.

Every benchmark in ``benchmarks/`` regenerates one figure of Sec. IV.  The
harness provides the pieces they share: an experiment table that collects
and pretty-prints series (the "rows the paper reports"), accuracy/timing
evaluation loops, and standard scenario constructions.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.synthetic import QueryCase, Scenario, ScenarioConfig, build_scenario
from repro.eval.metrics import route_accuracy
from repro.mapmatching.base import MapMatcher
from repro.roadnet.generators import GridCityConfig
from repro.roadnet.network import RoadNetwork
from repro.trajectory.resample import downsample

__all__ = [
    "ExperimentTable",
    "evaluate_accuracy",
    "evaluate_accuracy_and_time",
    "evaluate_accuracy_batch",
    "standard_scenario",
    "sparse_scenario",
    "density_scenario",
]


class ExperimentTable:
    """A figure's data: one x-axis, one column per series.

    Rows are recorded with :meth:`record` and rendered with
    :meth:`format` — the same rows/series the paper's figure plots.
    """

    def __init__(self, title: str, x_label: str) -> None:
        self.title = title
        self.x_label = x_label
        self._xs: List[object] = []
        self._series: Dict[str, Dict[object, float]] = {}

    def record(self, x: object, series: str, value: float) -> None:
        """Record one measurement."""
        if x not in self._xs:
            self._xs.append(x)
        self._series.setdefault(series, {})[x] = value

    def series(self, name: str) -> List[float]:
        """The values of one series in x order (NaN where missing)."""
        column = self._series.get(name, {})
        return [column.get(x, float("nan")) for x in self._xs]

    @property
    def xs(self) -> List[object]:
        return list(self._xs)

    @property
    def series_names(self) -> List[str]:
        return list(self._series.keys())

    def format(self, precision: int = 3) -> str:
        """Render as an aligned text table."""
        names = self.series_names
        header = [self.x_label] + names
        rows = [header]
        for x in self._xs:
            row = [str(x)]
            for name in names:
                v = self._series[name].get(x)
                row.append("-" if v is None else f"{v:.{precision}f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = [f"== {self.title} =="]
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)

    def save(self, path: Path | str) -> None:
        """Write the formatted table to a file (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.format() + "\n", encoding="utf-8")


def evaluate_accuracy(
    network: RoadNetwork,
    matcher: MapMatcher,
    cases: Sequence[QueryCase],
    interval_s: float,
) -> float:
    """Mean A_L of ``matcher`` over ``cases`` downsampled to ``interval_s``."""
    accs: List[float] = []
    for case in cases:
        query = downsample(case.query, interval_s)
        if len(query) < 2:
            continue
        result = matcher.match(query)
        accs.append(route_accuracy(network, case.truth, result.route))
    if not accs:
        raise ValueError("no evaluable queries at this sampling interval")
    return float(np.mean(accs))


def evaluate_accuracy_and_time(
    network: RoadNetwork,
    matcher: MapMatcher,
    cases: Sequence[QueryCase],
    interval_s: float,
) -> Tuple[float, float]:
    """Mean A_L plus mean wall-clock seconds per query."""
    accs: List[float] = []
    times: List[float] = []
    for case in cases:
        query = downsample(case.query, interval_s)
        if len(query) < 2:
            continue
        t0 = time.perf_counter()
        result = matcher.match(query)
        times.append(time.perf_counter() - t0)
        accs.append(route_accuracy(network, case.truth, result.route))
    if not accs:
        raise ValueError("no evaluable queries at this sampling interval")
    return float(np.mean(accs)), float(np.mean(times))


def evaluate_accuracy_batch(
    network: RoadNetwork,
    hris,
    cases: Sequence[QueryCase],
    interval_s: float,
    workers: int = 1,
) -> Tuple[float, float]:
    """Mean top-1 A_L of an HRIS instance over ``cases``, inferred as one
    batch through :meth:`~repro.core.system.HRIS.infer_routes_batch`.

    Batch results are element-for-element identical to per-query
    :meth:`infer_routes` calls, so this reports the same accuracy as
    :func:`evaluate_accuracy` over an ``HRISMatcher`` — only faster, since
    the engine caches stay warm across queries (and, on multi-core
    machines, queries fan out over ``workers`` processes).

    Returns:
        ``(mean A_L, total wall seconds for the whole batch)``.
    """
    queries: List = []
    truths: List = []
    for case in cases:
        query = downsample(case.query, interval_s)
        if len(query) < 2:
            continue
        queries.append(query)
        truths.append(case.truth)
    if not queries:
        raise ValueError("no evaluable queries at this sampling interval")
    t0 = time.perf_counter()
    results = hris.infer_routes_batch(queries, workers=workers)
    elapsed = time.perf_counter() - t0
    accs = [
        route_accuracy(network, truth, routes[0].route)
        for truth, routes in zip(truths, results)
        if routes
    ]
    return float(np.mean(accs)), elapsed


def standard_scenario(seed: int = 7, n_queries: int = 10) -> Scenario:
    """The default evaluation world used by most figures.

    A 14x14 grid city (6.5 km across) with 8 OD corridors, 240 demand
    trips at mixed sampling intervals plus background noise.
    """
    return build_scenario(
        ScenarioConfig(
            grid=GridCityConfig(nx=14, ny=14),
            n_od_pairs=8,
            n_archive_trips=240,
            n_background_trips=20,
            n_queries=n_queries,
            seed=seed,
        )
    )


def sparse_scenario(seed: int = 13, n_queries: int = 8) -> Scenario:
    """A history-poor world: few trips, mostly low-rate — stresses the
    spliced-reference search and the graph augmentation.

    The grid is larger than the standard world so even 15-minute queries
    keep several legs, and OD trips are long enough that low-rate archive
    trajectories have kilometre-scale gaps between points (the regime in
    which the search radius φ matters).
    """
    return build_scenario(
        ScenarioConfig(
            grid=GridCityConfig(nx=20, ny=20),
            n_od_pairs=6,
            min_od_distance=7_000.0,
            n_archive_trips=70,
            n_background_trips=10,
            archive_intervals=(60.0, 180.0, 300.0),
            archive_interval_weights=(0.2, 0.4, 0.4),
            n_queries=n_queries,
            seed=seed,
        )
    )


def density_scenario(
    n_archive_trips: int, seed: int = 29, n_queries: int = 6
) -> Scenario:
    """A world whose reference density is controlled by the trip count —
    the x-axis of Fig. 10."""
    return build_scenario(
        ScenarioConfig(
            grid=GridCityConfig(nx=14, ny=14),
            n_od_pairs=6,
            n_archive_trips=n_archive_trips,
            n_background_trips=max(2, n_archive_trips // 12),
            n_queries=n_queries,
            seed=seed,
        )
    )


def density_family(
    trip_counts: Sequence[int], seed: int = 29, n_queries: int = 6
) -> Dict[int, Scenario]:
    """Scenarios differing ONLY in archive size (Fig. 10's x-axis).

    The full-size world is built once; smaller worlds share its network,
    OD routes and queries, with the archive stride-subsampled so the trip
    mix stays representative.  This isolates the density effect from
    query-set noise.
    """
    from repro.core.archive import TrajectoryArchive

    full_count = max(trip_counts)
    full = density_scenario(full_count, seed=seed, n_queries=n_queries)
    trips = sorted(full.archive.trajectories(), key=lambda t: t.traj_id)
    family: Dict[int, Scenario] = {}
    for count in trip_counts:
        keep_fraction = count / full_count
        subset = [
            t for i, t in enumerate(trips) if (i * keep_fraction) % 1.0 < keep_fraction
        ]
        # Stride arithmetic keeps ~count*(1+bg fraction) trips; exactness is
        # not required — the observed density is measured separately.
        archive = TrajectoryArchive.from_trips(subset)
        family[count] = Scenario(
            network=full.network,
            archive=archive,
            od_routes=full.od_routes,
            route_probabilities=full.route_probabilities,
            queries=full.queries,
            config=full.config,
        )
    return family
