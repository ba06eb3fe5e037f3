"""Scenario persistence.

Saves a built scenario to a directory as three artefacts — the road
network, the archive trips and the query cases — so experiments can be
generated once and shared or re-run from disk (and so the CLI has a
working-set format).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.archive import make_archive
from repro.datasets.synthetic import QueryCase, Scenario, ScenarioConfig
from repro.roadnet.io import load_network, save_network
from repro.roadnet.route import Route
from repro.trajectory.io import load_trajectories, save_trajectories, trajectory_from_dict, trajectory_to_dict

__all__ = ["save_scenario", "load_scenario"]

_NETWORK_FILE = "network.json"
_ARCHIVE_FILE = "archive.jsonl"
_QUERIES_FILE = "queries.json"


def save_scenario(scenario: Scenario, directory: Union[str, Path]) -> Path:
    """Write a scenario's network, archive and queries to ``directory``.

    Returns:
        The directory path.  Demand-model internals (OD routes and choice
        probabilities) are not persisted — they are generator metadata, not
        inputs to the inference.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(scenario.network, directory / _NETWORK_FILE)
    save_trajectories(scenario.archive.trajectories(), directory / _ARCHIVE_FILE)
    queries = [
        {
            "query": trajectory_to_dict(case.query),
            "truth": list(case.truth.segment_ids),
        }
        for case in scenario.queries
    ]
    with open(directory / _QUERIES_FILE, "w", encoding="utf-8") as f:
        json.dump({"format": "repro-queries-v1", "cases": queries}, f)
    return directory


def load_scenario(
    directory: Union[str, Path],
    archive_backend: str = "memory",
    tile_size: Optional[float] = None,
    shard_addrs: Optional[Sequence[str]] = None,
    replication: Optional[int] = None,
    pool_size: Optional[int] = None,
) -> Scenario:
    """Read a scenario saved by :func:`save_scenario`.

    Args:
        directory: The scenario directory.
        archive_backend: Spatial backend the archive is loaded into —
            ``"memory"`` (one in-process R-tree, the default) or
            ``"remote"`` (tiles served by shard-server processes, see
            :mod:`repro.core.remote`).  Query results are identical
            whichever backend serves them.
        tile_size: Expected tile side in metres of the shard fleet
            (remote backend only; checked by the handshake).
        shard_addrs: ``host:port`` shard servers (remote backend only).
            Archive points are pushed to the owning shards as trips load;
            pushes are idempotent, so pre-seeded fleets are fine.
        replication: Expected replicas per shard (remote backend only);
            the handshake fails unless every shard has exactly this many
            servers among ``shard_addrs``.
        pool_size: Persistent connections kept per replica (remote
            backend only); concurrent servers raise it to their worker
            count so shard requests multiplex instead of serialising.

    Raises:
        FileNotFoundError: If any artefact is missing.
        ValueError: On format mismatches or an unknown backend.
    """
    directory = Path(directory)
    network = load_network(directory / _NETWORK_FILE)
    archive = make_archive(
        archive_backend, tile_size, shard_addrs, replication, pool_size
    )
    for trip in load_trajectories(directory / _ARCHIVE_FILE):
        archive.add(trip)
    with open(directory / _QUERIES_FILE, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != "repro-queries-v1":
        raise ValueError(f"unknown queries format: {payload.get('format')!r}")
    queries = [
        QueryCase(
            query=trajectory_from_dict(case["query"]),
            truth=Route.of([int(s) for s in case["truth"]]),
        )
        for case in payload["cases"]
    ]
    return Scenario(
        network=network,
        archive=archive,
        od_routes=[],
        route_probabilities=[],
        queries=queries,
        config=ScenarioConfig(),
    )
