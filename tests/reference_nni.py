"""The sort-based NNI search, kept as the reference for the flat kernel.

``NearestNeighborInference`` lays each query pair's pool out flat and has
every constrained-kNN search pop nearest-first from a lazily filled heap;
its monotone-walk filter reads the pool's precomputed distances to
``q_{i+1}`` and tells walks apart by pool indices.  This module keeps the
``Point``-based implementation that kernel replaced: a search that sorts
the whole pool by ``squared_distance_to`` and calls ``distance_to`` per
inspected point, the walk filter over ``Point`` lists keyed by
coordinates, and :class:`ReferenceNNI`, whose ``infer`` runs on them.
Nothing in ``src/`` uses it; the tests compare against it with ``==``.
"""

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.nni import _DEST, _START, NearestNeighborInference, NNIStats
from repro.core.traverse_graph import _filter_detours
from repro.geo.point import Point


def reference_constrained_knn(
    k: int,
    beta: float,
    current: Point,
    dest: Point,
    pool: Sequence[Point],
    alpha: float,
    exclude: Optional[Set[int]] = None,
) -> List[int]:
    """One constrained-kNN search: the whole pool sorted by squared
    distance (stable, so ties keep index order), then scanned."""
    d_cur_dest = current.distance_to(dest)
    order = sorted(
        range(len(pool)), key=lambda i: pool[i].squared_distance_to(current)
    )
    accepted: List[int] = []
    for i in order:
        if exclude is not None and i in exclude:
            continue
        p = pool[i]
        d_cp = current.distance_to(p)
        if d_cp == 0.0:
            continue
        if d_cp >= d_cur_dest:
            return [_DEST]
        d_p_dest = p.distance_to(dest)
        if d_p_dest - alpha > d_cur_dest:
            continue
        if d_cur_dest > 0.0 and (d_cp + d_p_dest) / d_cur_dest > beta:
            continue
        accepted.append(i)
        if len(accepted) >= k:
            return accepted
    accepted.append(_DEST)
    return accepted


def reference_monotone_walk(walk: Sequence[Point]) -> List[Point]:
    """The subsequence of a walk making strict progress to its end."""
    if len(walk) < 2:
        return list(walk)
    dest = walk[-1]
    filtered: List[Point] = [walk[0]]
    for p in walk[1:-1]:
        if p.distance_to(dest) < filtered[-1].distance_to(dest):
            filtered.append(p)
    filtered.append(dest)
    return filtered


class ReferenceNNI(NearestNeighborInference):
    """NNI whose walk enumeration and walk filter run on ``Point`` objects."""

    def infer(self, qi: Point, qi1: Point, references):
        cfg = self._config
        stats = NNIStats()
        raw_pool: List[Point] = [p for ref in references for p in ref.points]
        stats.n_reference_points = len(raw_pool)
        pool = self._dedupe_pool(raw_pool)
        if not pool:
            return [], stats

        paths = self._reference_paths(qi, qi1, pool, stats)
        stats.n_paths = len(paths)

        seen_walks: Set[Tuple[Tuple[float, float], ...]] = set()
        walks: List[List[Point]] = []
        for path in paths:
            walk = reference_monotone_walk([qi] + [pool[i] for i in path] + [qi1])
            walk_key = tuple((p.x, p.y) for p in walk)
            if walk_key not in seen_walks:
                seen_walks.add(walk_key)
                walks.append(walk)
        seen: Set[Tuple[int, ...]] = set()
        scored = []
        for match in self._walk_matcher.match_walks(walks):
            route = match.route
            if not route:
                continue
            key = route.segment_ids
            if key in seen:
                continue
            seen.add(key)
            scored.append((route.length(self._network), route))
        scored.sort(key=lambda pair: pair[0])
        direct = self._engine.endpoint_route(qi, qi1)
        routes = _filter_detours(
            self._network,
            [route for __, route in scored],
            cfg.max_detour_ratio,
            yardstick=direct.length(self._network) if direct is not None else None,
        )
        return routes[: cfg.max_routes], stats

    def _reference_paths(
        self, qi: Point, qi1: Point, pool: List[Point], stats: NNIStats
    ) -> List[List[int]]:
        cfg = self._config
        transit: Dict[int, List[int]] = {}
        paths: List[List[int]] = []
        max_depth = (
            cfg.max_depth if cfg.max_depth is not None else min(len(pool), 600)
        )
        expansions = 0
        dest_dist = [p.distance_to(qi1) for p in pool]

        def position(node: int) -> Point:
            return qi if node == _START else pool[node]

        def fresh_search(node, alpha, exclude):
            successors = reference_constrained_knn(
                cfg.k, cfg.beta, position(node), qi1, pool, alpha, exclude
            )
            stats.n_knn_searches += 1
            successors.sort(key=lambda s: -1.0 if s == _DEST else dest_dist[s])
            return successors

        def expand(node, alpha, visited):
            if not cfg.share_substructures:
                return fresh_search(node, alpha, visited)
            if node not in transit:
                transit[node] = fresh_search(node, alpha, None)
            shared = transit[node]
            if any(s == _DEST or s not in visited for s in shared):
                return shared
            return fresh_search(node, alpha, visited)

        def dfs(node, alpha, trace, visited):
            nonlocal expansions
            if (
                len(paths) >= cfg.max_paths
                or len(trace) > max_depth
                or expansions >= cfg.max_expansions
            ):
                return
            expansions += 1
            d_here = position(node).distance_to(qi1)
            for succ in expand(node, alpha, visited):
                if len(paths) >= cfg.max_paths or expansions >= cfg.max_expansions:
                    return
                if succ == _DEST:
                    paths.append(list(trace))
                    continue
                if succ in visited:
                    continue
                deviation = dest_dist[succ] - d_here
                child_alpha = alpha - max(0.0, deviation)
                visited.add(succ)
                trace.append(succ)
                dfs(succ, child_alpha, trace, visited)
                trace.pop()
                visited.discard(succ)

        dfs(_START, cfg.alpha, [], set())
        return paths
