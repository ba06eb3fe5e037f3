"""repro — HRIS: History-based Route Inference System.

A full Python reproduction of "Reducing Uncertainty of Low-Sampling-Rate
Trajectories" (Zheng, Zheng, Xie, Zhou — ICDE 2012): infer the likely
routes of a sparsely sampled GPS trajectory from historical travel
patterns.

Quickstart::

    from repro import build_scenario, HRIS, HRISConfig
    from repro.trajectory import downsample
    from repro.eval import route_accuracy

    scenario = build_scenario()
    hris = HRIS(scenario.network, scenario.archive, HRISConfig())
    case = scenario.queries[0]
    query = downsample(case.query, 180.0)        # 3-minute sampling
    routes = hris.infer_routes(query, k=5)
    print(route_accuracy(scenario.network, case.truth, routes[0].route))
"""

from repro.core import (
    HRIS,
    GlobalRoute,
    HRISConfig,
    HRISMatcher,
    InMemoryArchive,
    TrajectoryArchive,
)
from repro.datasets import Scenario, ScenarioConfig, build_scenario
from repro.roadnet import RoadNetwork, Route
from repro.trajectory import GPSPoint, Trajectory

__version__ = "1.0.0"

__all__ = [
    "HRIS",
    "GPSPoint",
    "GlobalRoute",
    "HRISConfig",
    "HRISMatcher",
    "InMemoryArchive",
    "RoadNetwork",
    "Route",
    "Scenario",
    "ScenarioConfig",
    "Trajectory",
    "TrajectoryArchive",
    "build_scenario",
    "__version__",
]
