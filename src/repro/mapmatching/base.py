"""Shared map-matching infrastructure.

Every matcher in this package — the incremental baseline, ST-Matching, IVMM
and the HMM matcher — shares the same three building blocks, factored out
here so comparisons isolate algorithmic differences:

* candidate search (Definition 5 with a nearest-segment fallback),
* a gaussian GPS observation model, and
* route stitching: bridging consecutive matched segments with network
  shortest paths to produce one connected :class:`Route`.

Candidate search and stitching read the network through a
:class:`~repro.roadnet.engine.RoutingEngine`; a matcher built without one
builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geo.point import Point
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.network import CandidateEdge
from repro.roadnet.route import Route
from repro.trajectory.model import Trajectory

__all__ = [
    "MatchResult",
    "gps_probability",
    "find_candidates",
    "stitch_route",
    "MapMatcher",
]

#: Default GPS error std-dev in metres (the 20 m of ST-Matching / IVMM).
DEFAULT_GPS_SIGMA = 20.0


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Output of a map matcher.

    Attributes:
        route: The matched connected route.
        matched: The chosen candidate edge per GPS point (None where the
            matcher could not place a point, e.g. off-map outliers).
    """

    route: Route
    matched: Tuple[Optional[CandidateEdge], ...]


def gps_probability(distance: float, sigma: float = DEFAULT_GPS_SIGMA) -> float:
    """Gaussian observation density N(0, sigma) of a projection distance."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    z = distance / sigma
    return math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma)


def find_candidates(
    engine: RoutingEngine,
    point: Point,
    radius: float,
    max_candidates: int = 5,
) -> List[CandidateEdge]:
    """Candidate edges of a point, nearest first, never empty if the network
    has segments.

    Uses the Definition 5 radius search and falls back to the k nearest
    segments when no segment lies within ``radius`` (an outlier GPS point
    must still be matched somewhere); both go through the ``engine``'s
    candidate-edge cache.
    """
    hits = engine.candidate_edges(point, radius)
    if not hits:
        hits = engine.nearest_segments(point, max_candidates)
    return hits[:max_candidates]


def stitch_route(engine: RoutingEngine, matched_segments: Sequence[int]) -> Route:
    """Connect a sequence of matched segments into one route.

    Consecutive duplicates collapse; non-adjacent consecutive segments are
    bridged with the ``engine``'s network shortest path.  Unreachable
    bridges are skipped (the route continues from the next segment) rather
    than failing, which mirrors how deployed matchers tolerate map defects.
    """
    are_connected = engine.network.are_connected
    ids: List[int] = []
    for sid in matched_segments:
        if not ids:
            ids.append(sid)
            continue
        if sid == ids[-1]:
            continue
        if are_connected(ids[-1], sid):
            ids.append(sid)
            continue
        gap, bridge = engine.shortest_route_between_segments(ids[-1], sid)
        if math.isinf(gap):
            ids.append(sid)  # tolerate the break
            continue
        # bridge includes both endpoints; drop the leading duplicate.
        ids.extend(bridge.segment_ids[1:])
    return Route.of(ids).dedupe_consecutive()


class MapMatcher:
    """Interface for map matchers: ``match(trajectory) -> MatchResult``."""

    def match(self, trajectory: Trajectory) -> MatchResult:
        raise NotImplementedError
