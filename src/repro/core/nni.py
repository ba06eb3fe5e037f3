"""Nearest-neighbor based local route inference — NNI (Sec. III-B.2, Alg. 2).

NNI walks from ``q_i`` towards ``q_{i+1}`` by repeatedly hopping to
constrained nearest-neighbor reference points:

* a candidate next point must not move away from the destination by more
  than the remaining tolerance α (which shrinks by every backward move —
  line 20 of Algorithm 2, guaranteeing eventual arrival), and
* it must not cause a detour: ``(d(p_c, p) + d(p, q_{i+1})) / d(p_c, q_{i+1})``
  must stay within β;
* when the destination itself is among the nearest neighbors it is taken
  exclusively (lines 13–16).

The recursion tree is explored depth-first.  With *substructure sharing*
enabled (the paper's transit-graph optimisation, Fig. 5) each point's
constrained-kNN expansion is computed once and reused by every path that
reaches the point, cutting the number of kNN searches.

One ``infer`` call lays its pool out once as flat coordinate lists plus
each point's distance to ``q_{i+1}`` (:class:`_FlatPool`); every search
then pops pool indices nearest-first from a heap of ``(squared distance,
index)`` — a full sort's order, ties by index — filled lazily by a sweep
outwards along one axis, so it touches little more than the few points
the search inspects.

Each enumerated point path is densified into a physical route by matching
every point to its best road segment and bridging with shortest paths; one
pair's walks are matched together, sharing the Viterbi work of common
prefixes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.reference import Reference
from repro.geo.point import Point
from repro.mapmatching.hmm import HMMConfig, HMMMatcher
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route

__all__ = ["NNIConfig", "NNIStats", "NearestNeighborInference"]

#: Sentinel node ids for the virtual start/destination of the walk.
_START = -1
_DEST = -2


@dataclass(frozen=True, slots=True)
class NNIConfig:
    """NNI parameters (Table II defaults).

    Attributes:
        k: Constrained nearest neighbors kept per recursion (k2, default 4).
        alpha: Initial backward-move tolerance in metres (default 500).
        beta: Detour-ratio tolerance (default 1.5).
        share_substructures: Reuse kNN expansions across paths (Fig. 5).
        candidate_radius: ε for matching walk points onto segments.
        max_paths: Cap on enumerated point paths per pair.
        max_depth: Cap on walk length in points (None: the pool size —
            every pool point may be visited once).
        max_expansions: Budget of DFS node expansions; the recursive search
            over a dense pool enumerates exponentially many partial walks,
            and this bound keeps the (paper-acknowledged) high-density blow
            up finite while preserving the paths found so far.
        max_routes: Cap on distinct local routes returned.
        max_detour_ratio: Local routes longer than this multiple of the
            network shortest-path distance between the nearest segments of
            q_i and q_{i+1} are discarded.  Only when those segments are
            not connected is the shortest returned route the yardstick.
    """

    k: int = 4
    alpha: float = 500.0
    beta: float = 1.5
    share_substructures: bool = True
    candidate_radius: float = 50.0
    max_paths: int = 32
    max_depth: Optional[int] = None
    max_expansions: int = 50_000
    max_routes: int = 10
    max_detour_ratio: float = 1.5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        # Negated, so that NaN (every comparison false) is refused too.
        if not self.alpha >= 0:
            raise ValueError("alpha must be non-negative")
        if not self.beta >= 1.0:
            raise ValueError("beta must be at least 1")


@dataclass(slots=True)
class NNIStats:
    """Instrumentation of one NNI invocation (drives Fig. 13)."""

    n_knn_searches: int = 0
    n_paths: int = 0
    n_reference_points: int = 0


class NearestNeighborInference:
    """Local route inference by constrained nearest-neighbor walking."""

    def __init__(
        self,
        network: RoadNetwork,
        config: NNIConfig = NNIConfig(),
        engine=None,
    ) -> None:
        self._network = network
        self._config = config
        self._engine = engine
        # The paper derives a route from each walk "by applying the
        # map-matching techniques"; an HMM matcher turns the densified walk
        # into a coherent route (greedy per-point snapping would zigzag).
        self._walk_matcher = HMMMatcher(
            network,
            HMMConfig(
                radius=max(2.0 * config.candidate_radius, 100.0),
                max_candidates=4,
            ),
            engine=engine,
        )

    def infer(
        self, qi: Point, qi1: Point, references: Sequence[Reference]
    ) -> Tuple[List[Route], NNIStats]:
        """Infer the local routes between ``q_i`` and ``q_{i+1}``.

        Returns:
            ``(routes, stats)``; routes deduplicated and capped, preferring
            paths that use more reference points (more evidence).
        """
        cfg = self._config
        stats = NNIStats()
        raw_pool: List[Point] = [p for ref in references for p in ref.points]
        stats.n_reference_points = len(raw_pool)
        pool = self._dedupe_pool(raw_pool)
        if not pool:
            return [], stats

        flat = _FlatPool(pool, qi1)
        dest_dist = flat.dest_dist
        d_start = qi.distance_to(qi1)
        paths = self._enumerate_paths(qi, d_start, flat, stats)
        stats.n_paths = len(paths)

        # Many enumerated paths collapse to the same monotone walk (the
        # subsequence making strict progress towards q_{i+1}: routing
        # through every backward wiggle α allows would charge the route
        # for navigation noise); the expensive HMM projection runs once
        # per distinct walk.  Pool points lie in distinct cells, so index
        # tuples tell walks apart exactly as their coordinates would.
        seen_walks: Set[Tuple[int, ...]] = set()
        walks: List[List[Point]] = []
        for path in paths:
            kept: List[int] = []
            last = d_start
            for i in path:
                if dest_dist[i] < last:
                    kept.append(i)
                    last = dest_dist[i]
            walk_key = tuple(kept)
            if walk_key not in seen_walks:
                seen_walks.add(walk_key)
                walks.append([qi] + [pool[i] for i in kept] + [qi1])
        seen: Set[Tuple[int, ...]] = set()
        scored: List[Tuple[float, Route]] = []
        # One decode covers the pair's walks: they all start at q_i and
        # share long prefixes, whose Viterbi work is done once.
        for match in self._walk_matcher.match_walks(walks):
            route = match.route
            if not route:
                continue
            key = route.segment_ids
            if key in seen:
                continue
            seen.add(key)
            scored.append((route.length(self._network), route))
        # Tightest routes first: all candidates join the same endpoints.
        scored.sort(key=lambda pair: pair[0])
        from repro.core.traverse_graph import _filter_detours

        routes = _filter_detours(
            self._network,
            [route for __, route in scored],
            cfg.max_detour_ratio,
            yardstick=self._endpoint_distance(qi, qi1),
        )
        return routes[: cfg.max_routes], stats

    def _endpoint_distance(self, qi: Point, qi1: Point) -> Optional[float]:
        """Network shortest-path distance between the pair's endpoints."""
        from repro.roadnet.shortest_path import shortest_route_between_segments

        src = self._network.nearest_segments(qi, 1)
        dst = self._network.nearest_segments(qi1, 1)
        if not src or not dst:
            return None
        a = src[0].segment.segment_id
        b = dst[0].segment.segment_id
        if self._engine is not None:
            gap, route = self._engine.shortest_route_between_segments(a, b)
        else:
            gap, route = shortest_route_between_segments(self._network, a, b)
        if math.isinf(gap):
            return None
        return route.length(self._network)

    def _dedupe_pool(self, points: List[Point]) -> List[Point]:
        """One representative per candidate-radius grid cell.

        Reference points from many trips pile up on the same road metres
        apart (GPS noise clusters); walking among them hop-by-hop carries no
        information and starves the recursion.  Points indistinguishable at
        candidate-edge resolution collapse to their first representative.
        """
        cell = max(self._config.candidate_radius, 1.0)
        seen: Set[Tuple[int, int]] = set()
        out: List[Point] = []
        for p in points:
            key = (int(p.x // cell), int(p.y // cell))
            if key in seen:
                continue
            seen.add(key)
            out.append(p)
        return out

    # ------------------------------------------------------------- the walk

    def _enumerate_paths(
        self, qi: Point, d_start: float, pool: "_FlatPool", stats: NNIStats
    ) -> List[List[int]]:
        """Depth-first recursion of Algorithm 2, collecting point paths.

        ``d_start`` is ``d(q_i, q_{i+1})``.  A path is the list of pool
        indices visited strictly between the start and the destination.
        """
        cfg = self._config
        xs, ys, dest_dist = pool.xs, pool.ys, pool.dest_dist
        transit: Dict[int, List[int]] = {}
        paths: List[List[int]] = []
        # Default depth bound: one visit per pool point, kept under Python's
        # recursion limit.
        max_depth = (
            cfg.max_depth if cfg.max_depth is not None else min(len(xs), 600)
        )
        expansions = 0

        def fresh_search(node: int, alpha: float, exclude: Optional[Set[int]]) -> List[int]:
            if node == _START:
                cx, cy, d_cur = qi.x, qi.y, d_start
            else:
                cx, cy, d_cur = xs[node], ys[node], dest_dist[node]
            successors = _knn_search(
                pool, cx, cy, d_cur, alpha, cfg.beta, cfg.k, exclude
            )
            stats.n_knn_searches += 1
            # Most progress first, so the depth-first search reaches the
            # destination (and the max_paths cap) quickly.
            successors.sort(key=lambda s: -1.0 if s == _DEST else dest_dist[s])
            return successors

        def expand(node: int, alpha: float, visited: Set[int]) -> List[int]:
            if not cfg.share_substructures:
                return fresh_search(node, alpha, visited)
            if node not in transit:
                transit[node] = fresh_search(node, alpha, None)
            shared = transit[node]
            if any(s == _DEST or s not in visited for s in shared):
                return shared
            # Every shared successor is already on the current walk; a
            # fresh non-memoised search keeps the walk alive.
            return fresh_search(node, alpha, visited)

        def dfs(node: int, alpha: float, trace: List[int], visited: Set[int]) -> None:
            nonlocal expansions
            if (
                len(paths) >= cfg.max_paths
                or len(trace) > max_depth
                or expansions >= cfg.max_expansions
            ):
                return
            expansions += 1
            d_here = d_start if node == _START else dest_dist[node]
            for succ in expand(node, alpha, visited):
                if len(paths) >= cfg.max_paths or expansions >= cfg.max_expansions:
                    return
                if succ == _DEST:
                    paths.append(list(trace))
                    continue
                if succ in visited:
                    continue
                # Line 20: shrink α by the backward deviation of this move.
                deviation = dest_dist[succ] - d_here
                child_alpha = alpha - max(0.0, deviation)
                visited.add(succ)
                trace.append(succ)
                dfs(succ, child_alpha, trace, visited)
                trace.pop()
                visited.discard(succ)

        dfs(_START, cfg.alpha, [], set())
        return paths

    def _constrained_knn(
        self,
        current: Point,
        dest: Point,
        pool: List[Point],
        alpha: float,
        exclude: Optional[Set[int]] = None,
    ) -> List[int]:
        """One constrained-kNN search from ``current`` over a ``Point`` pool.

        Lays the pool out flat and runs :func:`_knn_search`, the kernel
        ``infer`` uses.
        """
        cfg = self._config
        return _knn_search(
            _FlatPool(pool, dest),
            current.x,
            current.y,
            current.distance_to(dest),
            alpha,
            cfg.beta,
            cfg.k,
            exclude,
        )


class _FlatPool:
    """One query pair's pool, laid out flat for the constrained-kNN searches.

    ``xs``/``ys`` hold the points' coordinates and ``dest_dist`` their
    distances ``p.distance_to(dest)``.  For :meth:`nearest_first` the
    indices are also kept sorted along the axis of larger extent
    (``_order``, their coordinates on that axis in ``_axis``).
    """

    __slots__ = ("xs", "ys", "dest_dist", "_sweep_x", "_order", "_axis")

    def __init__(self, points: Sequence[Point], dest: Point) -> None:
        xs = self.xs = [p.x for p in points]
        ys = self.ys = [p.y for p in points]
        self.dest_dist = [p.distance_to(dest) for p in points]
        self._sweep_x = not xs or max(xs) - min(xs) >= max(ys) - min(ys)
        axis = xs if self._sweep_x else ys
        self._order = sorted(range(len(axis)), key=axis.__getitem__)
        self._axis = [axis[i] for i in self._order]

    def nearest_first(self, cx: float, cy: float) -> Iterator[int]:
        """Pool indices by ascending ``(dx * dx + dy * dy, index)``.

        ``dx``/``dy`` run from ``(cx, cy)`` to the point, so this is the
        order of a stable sort by ``Point.squared_distance_to``, ties by
        index.  Points enter the heap by a sweep outwards from ``cx`` (or
        ``cy``) along the sorted axis, nearer side first, and the heap's
        top is yielded once its key is below ``gap * gap``, ``gap`` being
        the smaller axis distance to a point not yet pushed.  Exact: every
        such point's key is at least ``gap * gap``, because rounding is
        monotone — its axis difference rounds to at least ``gap`` and
        adding the other square cannot lower the sum — so the top is
        smaller than every key still outside the heap.
        """
        xs, ys, order, axis = self.xs, self.ys, self._order, self._axis
        c = cx if self._sweep_x else cy
        n = len(order)
        hi = bisect_left(axis, c)
        lo = hi - 1
        inf = math.inf
        lo_gap = c - axis[lo] if lo >= 0 else inf
        hi_gap = axis[hi] - c if hi < n else inf
        heap: List[Tuple[float, int]] = []
        while lo >= 0 or hi < n:
            if lo >= 0 and lo_gap <= hi_gap:
                i = order[lo]
                lo -= 1
                lo_gap = c - axis[lo] if lo >= 0 else inf
            else:
                i = order[hi]
                hi += 1
                hi_gap = axis[hi] - c if hi < n else inf
            dx = xs[i] - cx
            dy = ys[i] - cy
            heappush(heap, (dx * dx + dy * dy, i))
            gap = lo_gap if lo_gap < hi_gap else hi_gap
            bound = gap * gap
            while heap and heap[0][0] < bound:
                yield heappop(heap)[1]
        while heap:
            yield heappop(heap)[1]


def _knn_search(
    pool: _FlatPool,
    cx: float,
    cy: float,
    d_cur_dest: float,
    alpha: float,
    beta: float,
    k: int,
    exclude: Optional[Set[int]],
) -> List[int]:
    """One constrained-kNN search (the while-loop of Algorithm 2).

    Scans pool points nearest-first from ``(cx, cy)``, applying the α and
    β filters; stops at ``k`` accepted points, or immediately with only
    the destination when the destination qualifies before ``k`` others.
    ``d_cur_dest`` is the current point's distance to the destination.
    Distances to pool points are ``hypot`` values, never square roots of
    the heap keys, which can be an ulp off them.
    """
    xs, ys, dest_dist = pool.xs, pool.ys, pool.dest_dist
    hypot = math.hypot
    accepted: List[int] = []
    for i in pool.nearest_first(cx, cy):
        if exclude is not None and i in exclude:
            continue
        d_cp = hypot(cx - xs[i], cy - ys[i])
        if d_cp == 0.0:
            continue  # the current point itself (or a duplicate)
        # Lines 13–16: take the destination exclusively once it is the
        # nearest remaining option.
        if d_cp >= d_cur_dest:
            return [_DEST]
        d_p_dest = dest_dist[i]
        # α filter (line 9): may not drift beyond the tolerance.
        if d_p_dest - alpha > d_cur_dest:
            continue
        # β filter (line 11): bounded detour.
        if d_cur_dest > 0.0 and (d_cp + d_p_dest) / d_cur_dest > beta:
            continue
        accepted.append(i)
        if len(accepted) >= k:
            return accepted
    # Pool exhausted before k hits: the destination is always reachable.
    accepted.append(_DEST)
    return accepted
