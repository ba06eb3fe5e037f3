"""IVMM — Interactive Voting-based Map Matching (Yuan et al. [23]).

IVMM extends ST-Matching with two ideas, both reproduced here:

* *position context weighting*: when deciding point ``i``, the static score
  matrix of every other point ``j`` is damped by
  ``ω_i(j) = exp(-(d(p_i, p_j)/β)²)`` so near points influence the decision
  more than far ones, and
* *interactive voting*: for every candidate ``c_i^k``, the globally optimal
  candidate sequence **constrained to pass through** ``c_i^k`` is computed
  (with the matrices weighted for point ``i``); that sequence casts one vote
  for each of its candidates.  Every point finally adopts its most-voted
  candidate.

The constrained optimum is found with one forward and one backward dynamic
program per (point, weighting) pair, combined at the pinned candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

__all__ = ["IVMMConfig", "IVMMMatcher"]


@dataclass(frozen=True, slots=True)
class IVMMConfig:
    """IVMM parameters.

    Attributes:
        radius: Candidate search radius in metres.
        max_candidates: Candidates kept per GPS point.
        sigma: GPS error std-dev for the observation probability.
        beta: Distance scale (metres) of the position-context weight.
        max_route_distance: Bound on candidate-to-candidate route searches.
    """

    radius: float = 100.0
    max_candidates: int = 4
    sigma: float = DEFAULT_GPS_SIGMA
    beta: float = 7_000.0
    max_route_distance: float = 50_000.0


class IVMMMatcher(MapMatcher):
    """Interactive voting matcher.

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
        config: IVMMConfig = IVMMConfig(),
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
        n = len(pts)
        layers: List[List[CandidateEdge]] = [
            find_candidates(self._engine, p.point, cfg.radius, cfg.max_candidates)
            for p in pts
        ]

        obs: List[List[float]] = [
            [gps_probability(c.distance, cfg.sigma) for c in layer]
            for layer in layers
        ]
        # Static transition matrices: trans[i][k][j] is the F_s·F_t score of
        # moving from candidate k of point i-1 to candidate j of point i,
        # already multiplied by the observation probability of the target.
        trans: List[List[List[float]]] = [[]]
        for i in range(1, n):
            dt = pts[i].t - pts[i - 1].t
            d_euclid = pts[i].point.distance_to(pts[i - 1].point)
            # The full frontier product of this step is about to be scored:
            # let the oracle cover it with one paused sweep per source.
            self._oracle.prepare(
                (c.segment.end for c in layers[i - 1]),
                (c.segment.start for c in layers[i]),
            )
            matrix: List[List[float]] = []
            for prev_cand in layers[i - 1]:
                row = [
                    obs[i][j] * self._edge_score(prev_cand, cand, d_euclid, dt)
                    for j, cand in enumerate(layers[i])
                ]
                matrix.append(row)
            trans.append(matrix)

        votes: Dict[Tuple[int, int], int] = {}
        sequence_score: Dict[Tuple[int, int], float] = {}
        for i in range(n):
            if not layers[i]:
                continue
            weights = [self._omega(pts[i].point.distance_to(pts[j].point)) for j in range(n)]
            fwd, fwd_par = self._forward(layers, obs, trans, weights)
            bwd, bwd_par = self._backward(layers, obs, trans, weights)
            for k in range(len(layers[i])):
                path = self._constrained_path(
                    i, k, layers, fwd, fwd_par, bwd, bwd_par
                )
                if path is None:
                    continue
                total = fwd[i][k] + bwd[i][k] - weights[i] * obs[i][k]
                for point_idx, cand_idx in enumerate(path):
                    if cand_idx < 0:
                        continue
                    key = (point_idx, cand_idx)
                    votes[key] = votes.get(key, 0) + 1
                    prev_score = sequence_score.get(key, -math.inf)
                    if total > prev_score:
                        sequence_score[key] = total

        chosen: List[Optional[CandidateEdge]] = []
        for i in range(n):
            if not layers[i]:
                chosen.append(None)
                continue
            best_j = max(
                range(len(layers[i])),
                key=lambda j: (
                    votes.get((i, j), 0),
                    sequence_score.get((i, j), -math.inf),
                ),
            )
            chosen.append(layers[i][best_j])

        segments = [c.segment.segment_id for c in chosen if c is not None]
        route = stitch_route(self._engine, segments)
        return MatchResult(route=route, matched=tuple(chosen))

    # ----------------------------------------------------------- internals

    def _omega(self, distance: float) -> float:
        z = distance / self._config.beta
        return math.exp(-z * z)

    def _edge_score(
        self,
        prev_cand: CandidateEdge,
        cand: CandidateEdge,
        d_euclid: float,
        dt: float,
    ) -> float:
        d_route = self._oracle.route_distance_between_projections(
            prev_cand.segment.segment_id,
            prev_cand.projection.offset,
            cand.segment.segment_id,
            cand.projection.offset,
        )
        if math.isinf(d_route):
            return 0.0
        transmission = 1.0 if d_route <= 0.0 else min(1.0, d_euclid / d_route)
        if dt <= 0.0:
            return transmission
        avg_speed = d_route / dt
        limits = [prev_cand.segment.speed_limit, cand.segment.speed_limit]
        num = sum(v * avg_speed for v in limits)
        den = math.sqrt(sum(v * v for v in limits)) * math.sqrt(
            len(limits) * avg_speed * avg_speed
        )
        f_t = 1.0 if den == 0.0 else num / den
        return transmission * f_t

    def _forward(
        self,
        layers: List[List[CandidateEdge]],
        obs: List[List[float]],
        trans: List[List[List[float]]],
        weights: List[float],
    ) -> Tuple[List[List[float]], List[List[int]]]:
        """Weighted forward DP.  fwd[i][j]: best score of a path ending at
        candidate j of point i."""
        n = len(layers)
        fwd: List[List[float]] = [[weights[0] * v for v in obs[0]]]
        par: List[List[int]] = [[-1] * len(layers[0])]
        for i in range(1, n):
            scores = [-math.inf] * len(layers[i])
            parents = [-1] * len(layers[i])
            for j in range(len(layers[i])):
                for k in range(len(layers[i - 1])):
                    if fwd[i - 1][k] == -math.inf:
                        continue
                    val = fwd[i - 1][k] + weights[i] * trans[i][k][j]
                    if val > scores[j]:
                        scores[j] = val
                        parents[j] = k
            if all(v == -math.inf for v in scores):
                scores = [weights[i] * v for v in obs[i]]
                parents = [-1] * len(scores)
            fwd.append(scores)
            par.append(parents)
        return fwd, par

    def _backward(
        self,
        layers: List[List[CandidateEdge]],
        obs: List[List[float]],
        trans: List[List[List[float]]],
        weights: List[float],
    ) -> Tuple[List[List[float]], List[List[int]]]:
        """Weighted backward DP.  bwd[i][j]: best score of a path starting at
        candidate j of point i (inclusive of its own weighted observation)."""
        n = len(layers)
        bwd: List[List[float]] = [[] for __ in range(n)]
        par: List[List[int]] = [[] for __ in range(n)]
        bwd[n - 1] = [weights[n - 1] * v for v in obs[n - 1]]
        par[n - 1] = [-1] * len(layers[n - 1])
        for i in range(n - 2, -1, -1):
            scores = [-math.inf] * len(layers[i])
            parents = [-1] * len(layers[i])
            for j in range(len(layers[i])):
                for k in range(len(layers[i + 1])):
                    if bwd[i + 1][k] == -math.inf:
                        continue
                    val = (
                        weights[i] * obs[i][j]
                        + weights[i + 1] * trans[i + 1][j][k]
                        + bwd[i + 1][k]
                        - weights[i + 1] * obs[i + 1][k]
                    )
                    if val > scores[j]:
                        scores[j] = val
                        parents[j] = k
            if all(v == -math.inf for v in scores):
                scores = [weights[i] * v for v in obs[i]]
                parents = [-1] * len(scores)
            bwd[i] = scores
            par[i] = parents
        return bwd, par

    def _constrained_path(
        self,
        pin_i: int,
        pin_k: int,
        layers: List[List[CandidateEdge]],
        fwd: List[List[float]],
        fwd_par: List[List[int]],
        bwd: List[List[float]],
        bwd_par: List[List[int]],
    ) -> Optional[List[int]]:
        """The candidate index per point of the best sequence through
        candidate ``pin_k`` of point ``pin_i`` (``-1`` for empty layers)."""
        n = len(layers)
        if fwd[pin_i][pin_k] == -math.inf or bwd[pin_i][pin_k] == -math.inf:
            return None
        path = [-1] * n
        path[pin_i] = pin_k
        j = pin_k
        for i in range(pin_i, 0, -1):
            j = fwd_par[i][j]
            if j < 0:
                break
            path[i - 1] = j
        j = pin_k
        for i in range(pin_i, n - 1):
            j = bwd_par[i][j]
            if j < 0:
                break
            path[i + 1] = j
        return path
