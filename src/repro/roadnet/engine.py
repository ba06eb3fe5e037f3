"""The batched inference routing engine: ALT search behind shared caches.

One :class:`RoutingEngine` lives inside each :class:`~repro.core.system.HRIS`
instance and is threaded through every component that touches the road
network on the hot path — the traverse-graph construction, NNI's endpoint
checks and walk matching, route scoring, global stitching and the
shortest-path fallback.  It bundles:

* a :class:`~repro.roadnet.shortest_path.LandmarkIndex` feeding the ALT
  lower bound into every A* run,
* a segment-pair **route cache** — the same corridor bridges are rebuilt
  constantly across query pairs and across queries of a batch,
* a **candidate-edge cache** — reference points recur across pairs/queries
  and their Definition 5 lookups dominate the profile,
* a **reference-support cache** — the traversed-segment set of a reference
  is needed by both the traverse graph and the scoring stage, and
* one LRU-bounded :class:`~repro.roadnet.table_oracle.DistanceTableOracle`
  per transition search bound, serving every matcher transition lookup.

Every cache is exact-keyed, so engine-backed inference returns bit-identical
results to the uncached seed code path; the engine only changes *when* work
is done, never *what* is computed.  All state is read-only after warmup from
the caller's perspective, and fork-shared by the batch worker pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geo.point import Point
from repro.roadnet.cache import CacheStats, LRUCache
from repro.roadnet.network import CandidateEdge, RoadNetwork
from repro.roadnet.route import Route
from repro.roadnet.shortest_path import (
    LandmarkIndex,
    SearchStats,
    shortest_route_between_segments,
)
from repro.roadnet.table_oracle import DistanceTableOracle

__all__ = ["EngineConfig", "EngineStats", "RoutingEngine"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Cache and heuristic knobs of the routing engine.

    Attributes:
        n_landmarks: Landmarks of the ALT index (0 disables ALT — A* falls
            back to the euclidean bound, the seed heuristic).
        route_cache_size: Entries of the segment-pair route cache
            (0 disables).
        candidate_cache_size: Entries of the candidate-edge cache.
        support_cache_size: Entries of the reference-support cache.
        oracle_sources: Source rows held by each transition oracle.
    """

    n_landmarks: int = 8
    route_cache_size: int = 65_536
    candidate_cache_size: int = 65_536
    support_cache_size: int = 16_384
    oracle_sources: int = 2_048


@dataclass(slots=True)
class EngineStats:
    """A snapshot of every engine counter (all deltas are per-snapshot).

    ``oracle`` aggregates the source-row hit/miss/eviction counters of
    *every* engine-owned transition oracle (one per distinct search bound),
    so matcher transition traffic shows up here.  ``settled_nodes`` counts
    the nodes settled by route searches and oracle sweeps together;
    ``sweeps`` counts the oracle sweeps run or resumed.
    """

    route_cache: CacheStats = field(default_factory=CacheStats)
    candidate_cache: CacheStats = field(default_factory=CacheStats)
    support_cache: CacheStats = field(default_factory=CacheStats)
    oracle: CacheStats = field(default_factory=CacheStats)
    searches: int = 0
    settled_nodes: int = 0
    landmarks: int = 0
    sweeps: int = 0

    def delta(self, earlier: "EngineStats") -> "EngineStats":
        return EngineStats(
            route_cache=self.route_cache.delta(earlier.route_cache),
            candidate_cache=self.candidate_cache.delta(earlier.candidate_cache),
            support_cache=self.support_cache.delta(earlier.support_cache),
            oracle=self.oracle.delta(earlier.oracle),
            searches=self.searches - earlier.searches,
            settled_nodes=self.settled_nodes - earlier.settled_nodes,
            landmarks=self.landmarks,
            sweeps=self.sweeps - earlier.sweeps,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat counter mapping for reports and the benchmark JSON."""
        out: Dict[str, float] = {
            "searches": self.searches,
            "settled_nodes": self.settled_nodes,
            "landmarks": self.landmarks,
            "sweeps": self.sweeps,
        }
        for name, cache in (
            ("route_cache", self.route_cache),
            ("candidate_cache", self.candidate_cache),
            ("support_cache", self.support_cache),
            ("oracle", self.oracle),
        ):
            out[f"{name}_hits"] = cache.hits
            out[f"{name}_misses"] = cache.misses
            out[f"{name}_evictions"] = cache.evictions
        return out


class RoutingEngine:
    """Shared routing services for one HRIS instance (or one batch worker)."""

    def __init__(
        self,
        network: RoadNetwork,
        config: EngineConfig = EngineConfig(),
        landmarks: Optional[LandmarkIndex] = None,
    ) -> None:
        """Args:
            landmarks: Optional prebuilt (e.g. persisted and reloaded)
                landmark index to reuse.  Ignored when
                ``config.n_landmarks == 0`` — that explicitly disables ALT.
        """
        self._network = network
        self._config = config
        if config.n_landmarks <= 0:
            self._landmarks = None
        elif landmarks is not None:
            self._landmarks = landmarks
        else:
            self._landmarks = LandmarkIndex.build(network, config.n_landmarks)
        self._route_cache: "LRUCache[Tuple[int, int], Tuple[float, Route]]" = LRUCache(
            config.route_cache_size
        )
        self._candidate_cache: "LRUCache[Tuple[float, float, float], Tuple[CandidateEdge, ...]]" = LRUCache(
            config.candidate_cache_size
        )
        self._support_cache: "LRUCache[Tuple[Tuple[Point, ...], float], frozenset]" = (
            LRUCache(config.support_cache_size)
        )
        self._search_stats = SearchStats()
        # One transition oracle per distinct search bound: the bound is part
        # of each matcher's model, so oracles are keyed by it and all feed
        # the same aggregated stats.
        self._transition_oracles: Dict[float, DistanceTableOracle] = {}

    # ------------------------------------------------------------ properties

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def landmarks(self) -> Optional[LandmarkIndex]:
        return self._landmarks

    def transition_oracle(
        self, max_distance: float = math.inf
    ) -> DistanceTableOracle:
        """The engine-owned transition oracle for one search bound.

        Matchers fetch their oracle here instead of building a private one,
        so all hit/miss/sweep counters land in :meth:`stats`.  One oracle
        is kept per distinct ``max_distance`` (the bound is part of each
        matcher's model) and shared by every component using that bound.
        """
        oracle = self._transition_oracles.get(max_distance)
        if oracle is None:
            oracle = DistanceTableOracle(
                self._network,
                max_distance=max_distance,
                max_rows=self._config.oracle_sources,
            )
            self._transition_oracles[max_distance] = oracle
        return oracle

    # --------------------------------------------------------------- routing

    def shortest_route_between_segments(
        self, from_segment: int, to_segment: int
    ) -> Tuple[float, Route]:
        """Cached segment-to-segment shortest route (ALT A*)."""
        return self._route_cache.get_or_compute(
            (from_segment, to_segment),
            lambda: shortest_route_between_segments(
                self._network,
                from_segment,
                to_segment,
                landmarks=self._landmarks,
                stats=self._search_stats,
            ),
        )

    # -------------------------------------------------------------- geometry

    def candidate_edges(self, p: Point, epsilon: float) -> List[CandidateEdge]:
        """Cached Definition 5 lookup (exact same result as the network's).

        A fresh list is returned so callers may slice or extend it freely;
        the cached tuple itself is immutable.
        """
        cached = self._candidate_cache.get_or_compute(
            (p.x, p.y, epsilon),
            lambda: tuple(self._network.candidate_edges(p, epsilon)),
        )
        return list(cached)

    def traversed_segments(self, reference, candidate_radius: float) -> frozenset:
        """Cached traversed-segment set of a reference.

        Keyed by the reference's point tuple (references are re-identified
        per search call, but their geometry recurs across pairs, queries and
        the scoring stage).
        """
        from repro.core.reference import reference_traversed_segments

        return self._support_cache.get_or_compute(
            (reference.points, candidate_radius),
            lambda: frozenset(
                reference_traversed_segments(
                    self._network,
                    reference,
                    candidate_radius,
                    candidate_lookup=self.candidate_edges,
                )
            ),
        )

    # ------------------------------------------------------------ accounting

    def stats(self) -> EngineStats:
        """A point-in-time snapshot of all engine counters."""
        oracle_stats = CacheStats()
        settled = self._search_stats.settled
        sweeps = 0
        for oracle in self._transition_oracles.values():
            snap = oracle.stats
            oracle_stats.hits += snap.hits
            oracle_stats.misses += snap.misses
            oracle_stats.evictions += snap.evictions
            settled += oracle.settled_nodes
            sweeps += oracle.sweeps
        return EngineStats(
            route_cache=self._route_cache.stats.snapshot(),
            candidate_cache=self._candidate_cache.stats.snapshot(),
            support_cache=self._support_cache.stats.snapshot(),
            oracle=oracle_stats,
            searches=self._search_stats.searches,
            settled_nodes=settled,
            landmarks=len(self._landmarks) if self._landmarks else 0,
            sweeps=sweeps,
        )

    def prepare_for_fork(self) -> None:
        """Seal the oracles' pending sweep heaps before a batch pool forks,
        so workers share the warmed rows copy-on-write (results-neutral)."""
        for oracle in self._transition_oracles.values():
            oracle.prepare_for_fork()
