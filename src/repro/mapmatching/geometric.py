"""Pure geometric map matching — the naive lower-bound baseline.

Matches every GPS point independently to its nearest road segment and
stitches the results with shortest paths.  No temporal reasoning, no
look-back, no probabilities: the floor every serious matcher must beat,
useful for calibrating how much the smarter algorithms actually buy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mapmatching.base import (
    MapMatcher,
    MatchResult,
    find_candidates,
    stitch_route,
)
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.network import CandidateEdge, RoadNetwork
from repro.trajectory.model import Trajectory

__all__ = ["GeometricConfig", "GeometricMatcher"]


@dataclass(frozen=True, slots=True)
class GeometricConfig:
    """Parameters of the geometric matcher.

    Attributes:
        radius: Candidate search radius in metres.
    """

    radius: float = 50.0


class GeometricMatcher(MapMatcher):
    """Nearest-segment-per-point matching, over a private routing engine."""

    def __init__(
        self, network: RoadNetwork, config: GeometricConfig = GeometricConfig()
    ) -> None:
        self._engine = RoutingEngine(network)
        self._config = config

    def match(self, trajectory: Trajectory) -> MatchResult:
        chosen: List[Optional[CandidateEdge]] = []
        for gps in trajectory.points:
            candidates = find_candidates(
                self._engine, gps.point, self._config.radius, max_candidates=1
            )
            chosen.append(candidates[0] if candidates else None)
        segments = [c.segment.segment_id for c in chosen if c is not None]
        return MatchResult(
            route=stitch_route(self._engine, segments), matched=tuple(chosen)
        )
