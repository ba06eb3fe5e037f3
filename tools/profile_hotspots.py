#!/usr/bin/env python
"""Profile the hot paths of a routing configuration with cProfile.

The throughput benchmark answers *how fast* each configuration is; this
tool answers *where the time goes*.  It builds the standard evaluation
scenario, runs every query through the chosen configuration under
cProfile, and prints the top functions by cumulative time::

    PYTHONPATH=src python tools/profile_hotspots.py --config engine --top 25
    PYTHONPATH=src python tools/profile_hotspots.py --config no_landmarks \
        --sort tottime
    python tools/profile_hotspots.py --workload dense --seed 1 --sort ncalls

Configurations are the same named set as ``tools/check_identity.py``
(``engine``, ``no_landmarks``, ...), so a profile always corresponds to
an identity-gated configuration.  ``--matcher`` profiles HMM
map-matching on a grid city through the default engine instead of the
inference scenario — the workload the many-to-many transition oracle
carries alone.

``--workload dense|sparse`` profiles one pass of the benchmark's own
inference workload instead (``perfbench/run.py``, imported read-only
from its file): the workload's city, archive and default configuration,
a fresh ``worker_clone()`` that answers the ``WARMUP_OPS`` warm-up
queries of ``--seed`` outside the profile, then the timed queries under
it — the workload's ``pass_queries``, or the first ``--queries`` of
them.  The counts it prints are those of one benchmark pass.

``--counters`` (with ``--workload``) runs that pass without the profiler
and prints exact work counts instead: TGI calls, origins expanded and
hop tables built; links built, augmentation bridges added and links
removed by reduction; SCC passes and source/destination pairs; the
Dijkstra runs of the K-shortest-path search (first paths, reverse
bound searches, spur searches); and the reference-support lookups and
misses.  Counts are the same on any machine, so two trees that must do
the same work can be compared by them::

    python tools/profile_hotspots.py --workload sparse --seed 1 --counters

Caveat: cProfile charges a fixed overhead per function call, which
inflates configurations that make many cheap calls relative to those
that make few expensive ones.  Use the output to find hotspots inside
one configuration; use ``benchmarks/bench_throughput.py`` (plain
``perf_counter`` timings) to compare configurations against each other.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import itertools
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _inference_workload(config_name: str, n_queries: int, interval: float):
    """Return a zero-arg callable running the inference scenario."""
    from repro.core.system import HRIS
    from repro.eval.harness import standard_scenario
    from repro.trajectory.resample import downsample

    sys.path.insert(0, str(REPO_ROOT / "tools"))
    from check_identity import _configs

    configs = _configs()
    if config_name not in configs:
        raise SystemExit(
            f"unknown config {config_name!r}; choose from {sorted(configs)}"
        )
    scenario = standard_scenario(seed=7, n_queries=n_queries)
    queries = [
        q
        for q in (downsample(c.query, interval) for c in scenario.queries)
        if len(q) >= 2
    ]
    hris = HRIS(scenario.network, scenario.archive, configs[config_name])
    hris.infer_routes(queries[0])  # warm caches outside the profile

    def run():
        for q in queries:
            hris.infer_routes(q)

    return run, f"{len(queries)} inference queries"


def _perfbench_workload(name: str, seed: int, n_queries):
    """Return a zero-arg callable answering one perfbench pass's timed queries."""
    from repro.core.archive import InMemoryArchive
    from repro.core.system import HRIS, HRISConfig

    spec = importlib.util.spec_from_file_location(
        "perfbench_run", REPO_ROOT / "perfbench" / "run.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    params = bench.WORKLOADS[name]
    n_timed = params["pass_queries"]
    if n_queries is not None:
        n_timed = min(n_timed, n_queries)

    scenario = bench.build_world(params)
    archive = InMemoryArchive.from_trips(list(scenario.archive.trajectories()))
    hris = HRIS(scenario.network, archive, HRISConfig())
    cases = list(
        itertools.islice(
            bench.iter_query_cases(scenario, seed, params["query_interval"]),
            bench.WARMUP_OPS + n_timed,
        )
    )
    warmup, timed = cases[: bench.WARMUP_OPS], cases[bench.WARMUP_OPS :]
    worker = hris.worker_clone()
    for query, __ in warmup:  # outside the profile, like the benchmark
        worker.infer_routes(query)

    def run():
        for query, __ in timed:
            worker.infer_routes(query)

    return run, (
        f"{len(timed)} timed queries of seed {seed} "
        f"after {len(warmup)} warm-up ones"
    ), worker


def _count_work(run, worker) -> dict:
    """Run ``run`` once with counting wrappers around TGI and its kernels.

    The wrappers replace module and class attributes for the duration of
    the run only, so the library carries no counters of its own.
    """
    import repro.core.traverse_graph as tgi_module
    import repro.roadnet.ksp as ksp

    counts = dict.fromkeys(
        [
            "tgi_calls",
            "origins_expanded",
            "hop_tables_built",
            "links_built",
            "bridges_added",
            "links_removed",
            "scc_passes",
            "source_destination_pairs",
            "dijkstra_first_path",
            "dijkstra_reverse",
            "dijkstra_spur",
            "support_lookups",
            "support_misses",
        ],
        0,
    )
    tgi_class = tgi_module.TraverseGraphInference
    originals = [
        (tgi_class, "infer", tgi_class.infer),
        (tgi_class, "_hop_table", tgi_class._hop_table),
        (tgi_module, "hop_layers", tgi_module.hop_layers),
        (
            tgi_module,
            "strongly_connected_components",
            tgi_module.strongly_connected_components,
        ),
        (ksp, "_index_graph", ksp._index_graph),
        (ksp, "_dijkstra", ksp._dijkstra),
    ]
    infer, hop_table, build_table, sccs, index_graph, dijkstra = (
        original for __, __, original in originals
    )
    indexed = [None]  # the forward graph of the K-shortest-path call running

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def counted_infer(self, *args, **kwargs):
        counts["tgi_calls"] += 1
        routes, stats = infer(self, *args, **kwargs)
        counts["links_built"] += stats.n_links
        counts["bridges_added"] += stats.n_links_augmented
        counts["links_removed"] += stats.n_links_removed
        counts["source_destination_pairs"] += stats.n_ksp_calls
        return routes, stats

    def counted_index_graph(*args, **kwargs):
        result = index_graph(*args, **kwargs)
        indexed[0] = result[2]
        return result

    def counted_dijkstra(out, start, start_edges, target, *args, **kwargs):
        if target >= 0:
            counts["dijkstra_spur"] += 1
        elif out is indexed[0]:
            counts["dijkstra_first_path"] += 1
        else:
            counts["dijkstra_reverse"] += 1
        return dijkstra(out, start, start_edges, target, *args, **kwargs)

    tgi_class.infer = counted_infer
    tgi_class._hop_table = counted("origins_expanded", hop_table)
    tgi_module.hop_layers = counted("hop_tables_built", build_table)
    tgi_module.strongly_connected_components = counted("scc_passes", sccs)
    ksp._index_graph = counted_index_graph
    ksp._dijkstra = counted_dijkstra
    before = worker.engine.stats()
    try:
        run()
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    support = worker.engine.stats().delta(before).support_cache
    counts["support_lookups"] = support.hits + support.misses
    counts["support_misses"] = support.misses
    return counts


def _matcher_workload(grid_n: int, n_drives: int):
    """Return a zero-arg callable map-matching simulated drives."""
    import numpy as np

    from repro.mapmatching.hmm import HMMConfig, HMMMatcher
    from repro.roadnet.engine import RoutingEngine
    from repro.roadnet.generators import GridCityConfig, grid_city
    from repro.roadnet.shortest_path import shortest_route_between_nodes
    from repro.trajectory.simulate import DriveConfig, drive_route

    city = grid_city(
        GridCityConfig(nx=grid_n, ny=grid_n, drop_fraction=0.08, one_way_fraction=0.1),
        np.random.default_rng(41),
    )
    n_nodes = len(list(city.nodes()))
    drive_rng = np.random.default_rng(5)
    trajs = []
    for k in range(n_drives):
        a, b = drive_rng.choice(n_nodes, size=2, replace=False)
        __, route = shortest_route_between_nodes(city, int(a), int(b))
        if not route.segment_ids:
            continue
        drive = drive_route(
            city,
            route,
            traj_id=k,
            config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=12.0),
            rng=np.random.default_rng(100 + k),
        )
        trajs.append(drive.trajectory)
    matcher = HMMMatcher(city, HMMConfig(), engine=RoutingEngine(city))

    def run():
        for t in trajs:
            matcher.match(t)

    return run, f"{len(trajs)} drives on a {n_nodes}-node grid"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        default="engine",
        help="configuration of the standard scenario (see tools/check_identity.py)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--matcher",
        action="store_true",
        help="profile HMM map-matching (default engine) instead of route inference",
    )
    mode.add_argument(
        "--workload",
        choices=["dense", "sparse"],
        help="profile one pass of this perfbench inference workload",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="perfbench query seed (--workload)"
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="inference queries (default 8; with --workload, all timed ones)",
    )
    parser.add_argument(
        "--interval", type=float, default=300.0, help="sampling interval (s)"
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="with --workload: print one pass's work counts instead of a profile",
    )
    parser.add_argument("--grid", type=int, default=20, help="matcher grid side")
    parser.add_argument("--drives", type=int, default=6, help="matcher drives")
    args = parser.parse_args(argv)
    if args.counters and args.workload is None:
        parser.error("--counters needs --workload")

    if args.counters:
        run, desc, worker = _perfbench_workload(args.workload, args.seed, args.queries)
        print(f"work counts of one perfbench {args.workload!r} pass: {desc}")
        for name, count in _count_work(run, worker).items():
            print(f"  {name:<26} {count:>9}")
        return 0
    if args.matcher:
        run, desc = _matcher_workload(args.grid, args.drives)
        print(f"profiling HMM matching: {desc}")
    elif args.workload is not None:
        run, desc, __ = _perfbench_workload(args.workload, args.seed, args.queries)
        print(f"profiling perfbench {args.workload!r}: {desc}")
    else:
        n_queries = 8 if args.queries is None else args.queries
        run, desc = _inference_workload(args.config, n_queries, args.interval)
        print(f"profiling {args.config!r}: {desc}")

    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
