"""Golden-route regression: inference output pinned against a recorded run.

``tools/check_identity.py`` compares configurations with each other inside
one checkout, so a change that moves every configuration the same way — a
new tie-break in Yen's K-shortest paths or in the Viterbi decoder — passes
every identity gate.  This test compares against routes recorded earlier:
``tests/data/golden_routes.json`` holds, for a few queries of a small
deterministic scenario, the top-K segment ids and the exact ``repr`` of
every log-score, for each local method.  Each method has two recorded
entries, ``<method>-per_pair`` and ``<method>-table``, from the per-pair
and table transition oracles the engine once offered; they are equal,
and the one configuration that remains must reproduce both.

Regenerate the fixture only for a change that is meant to alter results::

    PYTHONPATH=src python tests/test_golden_routes.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.system import HRIS, HRISConfig
from repro.datasets.synthetic import ScenarioConfig, build_scenario
from repro.roadnet.generators import GridCityConfig
from repro.trajectory.resample import downsample

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_routes.json"

#: Query sampling interval (s); low enough rate that every local method runs.
INTERVAL_S = 240.0
LOCAL_METHODS = ("hybrid", "tgi", "nni")
RECORDED_ORACLES = ("per_pair", "table")
CONFIG_NAMES = [f"{m}-{o}" for m in LOCAL_METHODS for o in RECORDED_ORACLES]


def golden_scenario():
    """Six queries over four OD corridors of a 10x10 grid city.

    The grid is perfect (no node jitter), so equal-length blocks make
    equal-cost paths common and a changed tie-break shows in the routes.
    """
    return build_scenario(
        ScenarioConfig(
            grid=GridCityConfig(nx=10, ny=10, jitter=0.0),
            n_od_pairs=4,
            min_od_distance=2_500.0,
            n_archive_trips=160,
            n_background_trips=10,
            n_queries=6,
            seed=5,
        )
    )


def infer_all(scenario, method: str) -> list:
    """``[[{"segments", "log_score"}, ...] per query]`` for one method."""
    hris = HRIS(scenario.network, scenario.archive, HRISConfig(local_method=method))
    out = []
    for case in scenario.queries:
        query = downsample(case.query, INTERVAL_S)
        if len(query) < 2:
            continue
        out.append(
            [
                {
                    "segments": list(g.route.segment_ids),
                    "log_score": repr(g.log_score),
                }
                for g in hris.infer_routes(query)
            ]
        )
    return out


@pytest.fixture(scope="module")
def scenario():
    return golden_scenario()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inferred(scenario):
    """Each local method's routes, inferred once for both its entries."""
    return {method: infer_all(scenario, method) for method in LOCAL_METHODS}


def test_fixture_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIG_NAMES)
    assert all(golden[name] for name in CONFIG_NAMES)


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_routes_match_golden(inferred, golden, name):
    method = name.split("-")[0]
    assert inferred[method] == golden[name]


if __name__ == "__main__":
    world = golden_scenario()
    routes = {method: infer_all(world, method) for method in LOCAL_METHODS}
    record = {name: routes[name.split("-")[0]] for name in CONFIG_NAMES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
