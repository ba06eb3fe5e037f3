"""Figure 14: effect of k3 (K of the global route inference).

* Fig. 14a — average and maximum accuracy of the top-k3 global routes.
* Fig. 14b — K-GRI (dynamic programming) vs brute-force enumeration time.

Expected shape (paper): the maximum accuracy grows monotonically with k3
(more suggestions can only help) while the average rises a little and then
drops (later suggestions are worse); the dynamic program beats brute force
by orders of magnitude.
"""

import time

import numpy as np
import pytest

from repro.core.kgri import brute_force_global_routes, k_gri
from repro.core.scoring import LocalRoute
from repro.core.system import HRIS, HRISConfig
from repro.eval.harness import ExperimentTable, standard_scenario
from repro.eval.metrics import route_accuracy
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.generators import manhattan_line
from repro.roadnet.route import Route
from repro.trajectory.resample import downsample

from conftest import emit

K3S = [1, 2, 4, 6, 10]
INTERVAL_S = 300.0


def test_fig14a_accuracy(benchmark, scenario_std, results_dir):
    sc = scenario_std
    hris = HRIS(sc.network, sc.archive, HRISConfig())
    table = ExperimentTable("Fig 14a: top-k3 accuracy", "k3")
    for k3 in K3S:
        avgs = []
        maxs = []
        for case in sc.queries:
            query = downsample(case.query, INTERVAL_S)
            if len(query) < 2:
                continue
            routes = hris.infer_routes(query, k3)
            accs = [
                route_accuracy(sc.network, case.truth, g.route) for g in routes
            ]
            avgs.append(float(np.mean(accs)))
            maxs.append(float(np.max(accs)))
        table.record(k3, "average", float(np.mean(avgs)))
        table.record(k3, "maximum", float(np.mean(maxs)))
    emit(table, results_dir, "fig14a")

    # Max accuracy is monotone in k3; the average eventually drops below it.
    maxima = [table._series["maximum"][k] for k in K3S]
    for a, b in zip(maxima, maxima[1:]):
        assert b >= a - 0.01
    assert table._series["average"][K3S[-1]] <= table._series["maximum"][K3S[-1]]

    query = downsample(sc.queries[0].query, INTERVAL_S)
    benchmark.pedantic(lambda: hris.infer_routes(query, 10), rounds=3, iterations=1)


def synthetic_stages(n_stages=7, routes_per_stage=5, seed=3):
    """Deterministic stages for the DP-vs-brute-force timing comparison."""
    rng = np.random.default_rng(seed)
    line = manhattan_line(n_nodes=2 * n_stages * routes_per_stage + 2, spacing=100.0)
    stages = []
    seg = 0
    for __ in range(n_stages):
        stage = []
        for __r in range(routes_per_stage):
            support = frozenset(
                int(x) for x in rng.choice(40, size=int(rng.integers(1, 8)), replace=False)
            )
            stage.append(
                LocalRoute(
                    route=Route.of([seg]),
                    popularity=float(rng.uniform(0.5, 30.0)),
                    support=support,
                )
            )
            seg += 2
        stages.append(stage)
    return line, stages


def test_fig14b_dp_vs_bruteforce(benchmark, results_dir):
    table = ExperimentTable("Fig 14b: K-GRI vs brute force (seconds)", "k3")
    line, stages = synthetic_stages()
    engine = RoutingEngine(line)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    brute_secs = timed(lambda: brute_force_global_routes(engine, stages, 10))
    for k3 in K3S:
        dp_secs = timed(lambda: k_gri(engine, stages, k3))
        table.record(k3, "K-GRI", dp_secs)
        table.record(k3, "brute force", brute_secs)
    emit(table, results_dir, "fig14b")

    # Correctness cross-check and the orders-of-magnitude claim.
    dp = k_gri(engine, stages, 5)
    bf = brute_force_global_routes(engine, stages, 5)
    for a, b in zip(dp, bf):
        assert abs(a.log_score - b.log_score) < 1e-9
    slowest_dp = max(table._series["K-GRI"].values())
    assert brute_secs > 20.0 * slowest_dp

    benchmark.pedantic(lambda: k_gri(engine, stages, 5), rounds=5, iterations=1)
