"""HMM map matching (Newson & Krumm style).

Not one of the paper's competitors, but the de-facto standard matcher today.
It serves two roles in this reproduction:

* the *preprocessing* map-matching step (Sec. II-B aligns archive GPS points
  onto segments before the route inference ever sees them), and
* the ground-truthing of high-sampling-rate trajectories in tests.

Emission is gaussian in the projection distance; transition favours
candidates whose network detour matches the straight-line hop
(``exp(-|d_route - d_euclid| / beta)``); decoding is Viterbi in log space.
Many walks decode together through a prefix trie
(:meth:`HMMMatcher.match_walks`), so walks sharing their first points share
those points' candidate layers and Viterbi columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.point import Point
from repro.mapmatching.base import (
    DEFAULT_GPS_SIGMA,
    MapMatcher,
    MatchResult,
    find_candidates,
    stitch_route,
)
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.network import CandidateEdge, RoadNetwork
from repro.trajectory.model import Trajectory

__all__ = ["HMMConfig", "HMMMatcher"]


@dataclass(frozen=True, slots=True)
class HMMConfig:
    """HMM matcher parameters.

    Attributes:
        radius: Candidate search radius in metres.
        max_candidates: Candidates kept per point.
        sigma: GPS error std-dev (emission model).
        beta: Scale of the detour penalty in metres (transition model).
        max_route_distance: Bound on candidate-to-candidate route searches.
    """

    radius: float = 100.0
    max_candidates: int = 5
    sigma: float = DEFAULT_GPS_SIGMA
    beta: float = 200.0
    max_route_distance: float = 50_000.0


class HMMMatcher(MapMatcher):
    """Viterbi decoder over the candidate lattice.

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
        config: HMMConfig = HMMConfig(),
        engine=None,
    ) -> None:
        self._config = config
        if engine is None:
            engine = RoutingEngine(network)
        self._engine = engine
        self._oracle = engine.transition_oracle(config.max_route_distance)

    def match(self, trajectory: Trajectory) -> MatchResult:
        return self.match_walks([[p.point for p in trajectory.points]])[0]

    def match_walks(self, walks: Sequence[Sequence[Point]]) -> List[MatchResult]:
        """Match many point sequences, sharing the work of common prefixes.

        A Viterbi column depends only on the points up to its own, so the
        walks are threaded through a prefix trie keyed by exact point
        coordinates: each distinct prefix gets its candidate layer and
        column once, and each walk only backtraces and stitches its own
        route.  Every result equals matching that walk alone.
        """
        roots: Dict[Tuple[float, float], _Prefix] = {}
        results: List[MatchResult] = []
        for walk in walks:
            chain: List[_Prefix] = []
            children = roots
            prefix: Optional[_Prefix] = None
            for point in walk:
                key = (point.x, point.y)
                node = children.get(key)
                if node is None:
                    node = children[key] = self._extend(prefix, point)
                chain.append(node)
                children = node.children
                prefix = node
            results.append(self._decode(chain))
        return results

    def _extend(self, prefix: Optional["_Prefix"], point: Point) -> "_Prefix":
        """The trie node of ``prefix`` followed by ``point``."""
        cfg = self._config
        layer = find_candidates(self._engine, point, cfg.radius, cfg.max_candidates)

        def log_emission(c: CandidateEdge) -> float:
            z = c.distance / cfg.sigma
            return -0.5 * z * z

        if prefix is None:
            return _Prefix(
                point, layer, [log_emission(c) for c in layer], [-1] * len(layer)
            )

        inf = math.inf
        beta = cfg.beta
        d_euclid = point.distance_to(prefix.point)
        prev_layer = prefix.layer
        prev_score = prefix.score
        # Frontier batching: announce this step's source/target node sets so
        # the oracle covers them with one paused sweep per source.  It
        # returns per-source plain dicts, exact for every announced target,
        # so the inner pair loop stays at dict.get speed.
        tables = self._oracle.prepare(
            (
                c.segment.end
                for k, c in enumerate(prev_layer)
                if prev_score[k] != -inf
            ),
            (c.segment.start for c in layer),
        )
        # Per-previous-candidate state hoisted out of the pair loop: the
        # distance table, segment id, offset and tail length are the same
        # for every current candidate, so fetch them once.  The inlined
        # arithmetic below mirrors
        # DistanceTableOracle.route_distance_between_projections exactly.
        prev_info: List[Optional[tuple]] = []
        for k, prev_cand in enumerate(prev_layer):
            sc = prev_score[k]
            if sc == -inf:
                prev_info.append(None)
                continue
            seg = prev_cand.segment
            off = prev_cand.projection.offset
            prev_info.append(
                (sc, seg.segment_id, off, seg.length - off, tables[seg.end])
            )
        cur: List[float] = []
        par: List[int] = []
        for cand in layer:
            emit = log_emission(cand)
            cand_seg = cand.segment
            cand_id = cand_seg.segment_id
            cand_off = cand.projection.offset
            cand_start = cand_seg.start
            best_val = -inf
            best_k = -1
            for k, info in enumerate(prev_info):
                if info is None:
                    continue
                sc, prev_id, prev_off, tail, table = info
                if prev_id == cand_id and cand_off >= prev_off:
                    d_route = cand_off - prev_off
                else:
                    via = table.get(cand_start, inf)
                    if via == inf:
                        continue
                    d_route = tail + via + cand_off
                val = sc + -abs(d_route - d_euclid) / beta + emit
                if val > best_val:
                    best_val = val
                    best_k = k
            cur.append(best_val)
            par.append(best_k)
        if all(v == -inf for v in cur):
            # Unreachable step: restart the chain from emissions alone.
            cur = [log_emission(c) for c in layer]
            par = [-1] * len(cur)
        return _Prefix(point, layer, cur, par)

    def _decode(self, chain: List["_Prefix"]) -> MatchResult:
        """Backtrace one walk's trie chain and stitch its route."""
        n = len(chain)
        chosen: List[Optional[CandidateEdge]] = [None] * n
        if chain and chain[-1].layer:
            score = chain[-1].score
            j = max(range(len(score)), key=score.__getitem__)
            for i in range(n - 1, -1, -1):
                node = chain[i]
                if j < 0 or not node.layer:
                    if node.layer:
                        score = node.score
                        j = max(range(len(score)), key=score.__getitem__)
                        chosen[i] = node.layer[j]
                        j = node.parent[j]
                    continue
                chosen[i] = node.layer[j]
                j = node.parent[j]

        segments = [c.segment.segment_id for c in chosen if c is not None]
        route = stitch_route(self._engine, segments)
        return MatchResult(route=route, matched=tuple(chosen))


class _Prefix:
    """Trie node of :meth:`HMMMatcher.match_walks`: one walk prefix.

    Holds the prefix's last point, that point's candidate layer, the
    Viterbi column over the layer (best log-score per candidate and the
    index of its best predecessor, ``-1`` at a chain start) and the
    prefixes extending this one, keyed by their next point's coordinates.
    """

    __slots__ = ("point", "layer", "score", "parent", "children")

    def __init__(
        self,
        point: Point,
        layer: List[CandidateEdge],
        score: List[float],
        parent: List[int],
    ) -> None:
        self.point = point
        self.layer = layer
        self.score = score
        self.parent = parent
        self.children: Dict[Tuple[float, float], _Prefix] = {}
