"""Shortest paths on the road network.

Provides node-level Dijkstra and A*, plus the segment-level helpers the rest
of the system needs: the shortest *route* (sequence of segments, Definition 4)
between two segments.  Many-pair distances for the map matchers come from
:class:`~repro.roadnet.table_oracle.DistanceTableOracle`.

Two properties matter beyond raw speed:

* **Canonical tie-breaking.**  Grid-like networks have many equal-length
  shortest paths, and which one a label-setting search reconstructs normally
  depends on its expansion order — i.e. on the heuristic.  Here every search
  keeps, for each settled node, the *smallest-id optimal predecessor*, and
  keeps expanding until no queued label can still lie on a shortest path.
  The reconstructed path is therefore a function of the graph alone:
  Dijkstra, euclidean A* and ALT-A* all return the identical route, which is
  what lets the routing engine swap heuristics without changing results.

* **ALT (A*, Landmarks, Triangle inequality).**  A :class:`LandmarkIndex`
  precomputes forward/backward distance tables from a handful of
  farthest-point-sampled landmarks; the triangle inequality turns the tables
  into an admissible, consistent lower bound that dominates the euclidean
  heuristic on road networks, so A* settles far fewer nodes per query.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route

__all__ = [
    "SearchStats",
    "dijkstra",
    "dijkstra_all",
    "astar",
    "LandmarkIndex",
    "combined_heuristic",
    "node_path_to_route",
    "shortest_route_between_nodes",
    "shortest_route_between_segments",
    "segment_route_length",
]

Heuristic = Callable[[int], float]


@dataclass(slots=True)
class SearchStats:
    """Accumulated work counters across shortest-path searches."""

    searches: int = 0
    settled: int = 0

    def snapshot(self) -> "SearchStats":
        return SearchStats(self.searches, self.settled)

    def delta(self, earlier: "SearchStats") -> "SearchStats":
        return SearchStats(
            searches=self.searches - earlier.searches,
            settled=self.settled - earlier.settled,
        )


def _search(
    network: RoadNetwork,
    source: int,
    target: int,
    heuristic: Optional[Heuristic],
    max_distance: float,
    stats: Optional[SearchStats],
) -> Tuple[float, List[int]]:
    """Label-setting search with canonical (min-id predecessor) tie-breaking.

    Runs A* when ``heuristic`` is given (it must be admissible and
    consistent), plain Dijkstra otherwise.  After the target is settled the
    search keeps draining every label whose f-value still equals the optimum
    so that *every* optimal predecessor relaxes its successors; combined
    with the smallest-id predecessor rule this makes the reconstructed path
    independent of the heuristic and of heap ordering.
    """
    if source == target:
        return 0.0, [source]
    h: Heuristic = heuristic if heuristic is not None else (lambda __: 0.0)
    g: Dict[int, float] = {source: 0.0}
    prev: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(h(source), source)]
    closed: set[int] = set()
    best = math.inf
    if stats is not None:
        stats.searches += 1
    while heap:
        f, u = heapq.heappop(heap)
        if f > best:
            break
        if u in closed:
            continue
        closed.add(u)
        if stats is not None:
            stats.settled += 1
        gu = g[u]
        if u == target:
            best = gu
            continue
        if gu > max_distance:
            continue
        for sid in network.out_segments(u):
            seg = network.segment(sid)
            v = seg.end
            ng = gu + seg.length
            gv = g.get(v, math.inf)
            if ng < gv:
                g[v] = ng
                prev[v] = u
                heapq.heappush(heap, (ng + h(v), v))
            elif ng == gv and u < prev.get(v, u + 1):
                # Equal-cost parent with a smaller id: keep the canonical
                # predecessor; the label itself is unchanged, no re-push.
                prev[v] = u
    if math.isinf(best):
        return math.inf, []
    return best, _reconstruct(prev, source, target)


def dijkstra(
    network: RoadNetwork,
    source: int,
    target: int,
    max_distance: float = math.inf,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, List[int]]:
    """Shortest node path from ``source`` to ``target``.

    Returns:
        ``(distance, node_path)``; ``(inf, [])`` when unreachable or farther
        than ``max_distance``.
    """
    return _search(network, source, target, None, max_distance, stats)


def dijkstra_all(
    network: RoadNetwork,
    source: int,
    max_distance: float = math.inf,
    reverse: bool = False,
) -> Dict[int, float]:
    """Distances from ``source`` to every node within ``max_distance``.

    With ``reverse=True`` edges are traversed backwards, yielding the
    distance *to* ``source`` from every node — the backward landmark table.
    """
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled: Dict[int, float] = {}
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if d > max_distance:
            break
        settled[u] = d
        segments = network.in_segments(u) if reverse else network.out_segments(u)
        for sid in segments:
            seg = network.segment(sid)
            v = seg.start if reverse else seg.end
            nd = d + seg.length
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def astar(
    network: RoadNetwork,
    source: int,
    target: int,
    max_distance: float = math.inf,
    heuristic: Optional[Heuristic] = None,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, List[int]]:
    """A* to ``target`` with an admissible heuristic.

    The default heuristic is the euclidean distance to the target (roads are
    never shorter than the straight line); pass ``heuristic`` to supply a
    stronger admissible bound such as :meth:`LandmarkIndex.heuristic_to`.

    Returns:
        ``(distance, node_path)``; ``(inf, [])`` when unreachable.
    """
    if heuristic is None:
        goal = network.node(target).point

        def heuristic(node_id: int) -> float:
            return network.node(node_id).point.distance_to(goal)

    return _search(network, source, target, heuristic, max_distance, stats)


def _reconstruct(prev: Dict[int, int], source: int, target: int) -> List[int]:
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


# --------------------------------------------------------------------- ALT


class LandmarkIndex:
    """Precomputed landmark distance tables for the ALT heuristic.

    Landmarks are chosen by farthest-point sampling on network distance
    (good geometric spread at the periphery, where triangle-inequality
    bounds are tightest).  For each landmark ``L`` the index stores the
    full forward table ``d(L, ·)`` and backward table ``d(·, L)``; for a
    query towards ``t`` the admissible lower bound on ``d(u, t)`` is::

        max_L max( d(u, L) - d(t, L),  d(L, t) - d(L, u) )

    Both terms follow from the triangle inequality on the directed graph,
    and the resulting heuristic is consistent, so A* remains exact.
    """

    def __init__(
        self,
        landmarks: Tuple[int, ...],
        forward: Tuple[Dict[int, float], ...],
        backward: Tuple[Dict[int, float], ...],
    ) -> None:
        self._landmarks = landmarks
        self._forward = forward
        self._backward = backward

    @classmethod
    def build(cls, network: RoadNetwork, n_landmarks: int = 8) -> "LandmarkIndex":
        """Select landmarks by farthest-point sampling and fill the tables.

        Deterministic: sampling starts from the node farthest from the
        smallest node id, and every argmax tie is broken towards the
        smaller node id.
        """
        node_ids = sorted(n.node_id for n in network.nodes())
        if not node_ids or n_landmarks <= 0:
            return cls((), (), ())
        n_landmarks = min(n_landmarks, len(node_ids))

        root_table = dijkstra_all(network, node_ids[0])
        first = cls._argmax(node_ids, lambda v: root_table.get(v, -1.0))

        landmarks: List[int] = [first]
        forward: List[Dict[int, float]] = [dijkstra_all(network, first)]
        # min over chosen landmarks of the forward distance to each node.
        min_dist: Dict[int, float] = dict(forward[0])
        while len(landmarks) < n_landmarks:
            chosen = set(landmarks)
            candidate = cls._argmax(
                node_ids,
                lambda v: math.inf if v not in chosen and v not in min_dist
                else (-1.0 if v in chosen else min_dist[v]),
            )
            if candidate in chosen:
                break
            landmarks.append(candidate)
            table = dijkstra_all(network, candidate)
            forward.append(table)
            for v, d in table.items():
                if d < min_dist.get(v, math.inf):
                    min_dist[v] = d
        backward = [
            dijkstra_all(network, landmark, reverse=True) for landmark in landmarks
        ]
        return cls(tuple(landmarks), tuple(forward), tuple(backward))

    @staticmethod
    def _argmax(node_ids: Sequence[int], key: Callable[[int], float]) -> int:
        best = node_ids[0]
        best_val = key(best)
        for v in node_ids[1:]:
            val = key(v)
            if val > best_val:
                best, best_val = v, val
        return best

    @property
    def landmarks(self) -> Tuple[int, ...]:
        return self._landmarks

    @property
    def forward_tables(self) -> Tuple[Dict[int, float], ...]:
        """Per-landmark forward distance tables ``d(L, ·)`` (read-only use)."""
        return self._forward

    @property
    def backward_tables(self) -> Tuple[Dict[int, float], ...]:
        """Per-landmark backward distance tables ``d(·, L)`` (read-only use)."""
        return self._backward

    def __len__(self) -> int:
        return len(self._landmarks)

    def lower_bound(self, source: int, target: int) -> float:
        """Admissible lower bound on ``d(source, target)``."""
        return self.heuristic_to(target)(source)

    def heuristic_to(self, target: int) -> Heuristic:
        """The ALT lower-bound function towards a fixed target.

        The per-landmark target distances are resolved once here, so the
        returned callable does only dictionary lookups per node.
        """
        rows: List[Tuple[Dict[int, float], Dict[int, float], Optional[float], Optional[float]]] = []
        for fwd, bwd in zip(self._forward, self._backward):
            rows.append((fwd, bwd, fwd.get(target), bwd.get(target)))

        def h(u: int) -> float:
            best = 0.0
            for fwd, bwd, l_to_t, t_to_l in rows:
                if l_to_t is not None:
                    l_to_u = fwd.get(u)
                    if l_to_u is not None:
                        diff = l_to_t - l_to_u
                        if diff > best:
                            best = diff
                if t_to_l is not None:
                    u_to_l = bwd.get(u)
                    if u_to_l is not None:
                        diff = u_to_l - t_to_l
                        if diff > best:
                            best = diff
            return best

        return h


def combined_heuristic(
    network: RoadNetwork, target: int, landmarks: Optional[LandmarkIndex]
) -> Heuristic:
    """``max(euclidean, ALT)`` towards ``target`` — admissible and consistent.

    Falls back to the euclidean bound alone when no landmark index is
    given (or it is empty), so callers can thread an optional index
    unconditionally.
    """
    goal = network.node(target).point

    def euclid(u: int) -> float:
        return network.node(u).point.distance_to(goal)

    if landmarks is None or len(landmarks) == 0:
        return euclid
    alt = landmarks.heuristic_to(target)

    def h(u: int) -> float:
        return max(euclid(u), alt(u))

    return h


# ----------------------------------------------------------------- routes


def node_path_to_route(network: RoadNetwork, node_path: List[int]) -> Route:
    """Convert a node path to a route, choosing the shortest parallel segment
    when the graph has multi-edges between a node pair.

    Uses the network's precomputed cheapest-segment adjacency map, so the
    conversion is one dictionary lookup per hop.

    Raises:
        ValueError: If consecutive nodes are not adjacent.
    """
    segment_ids: List[int] = []
    for u, v in zip(node_path, node_path[1:]):
        sid = network.cheapest_segment_between(u, v)
        if sid is None:
            raise ValueError(f"no segment connects node {u} to node {v}")
        segment_ids.append(sid)
    return Route.of(segment_ids)


def shortest_route_between_nodes(
    network: RoadNetwork,
    source: int,
    target: int,
    landmarks: Optional[LandmarkIndex] = None,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, Route]:
    """Shortest route (segments) between two vertices.

    Returns:
        ``(distance, route)``; ``(inf, empty route)`` when unreachable.
    """
    d, node_path = astar(
        network,
        source,
        target,
        heuristic=combined_heuristic(network, target, landmarks),
        stats=stats,
    )
    if math.isinf(d):
        return math.inf, Route.empty()
    return d, node_path_to_route(network, node_path)


def shortest_route_between_segments(
    network: RoadNetwork,
    from_segment: int,
    to_segment: int,
    landmarks: Optional[LandmarkIndex] = None,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, Route]:
    """Shortest route starting with ``from_segment`` and ending with
    ``to_segment``.

    The returned distance is the length of the gap between the two segments
    (end vertex of the first to start vertex of the second) — the natural
    link weight for the traverse graph.  The route includes both endpoints.

    Returns:
        ``(gap_distance, route)``; ``(inf, empty route)`` when unreachable.
    """
    if from_segment == to_segment:
        return 0.0, Route.of([from_segment])
    a = network.segment(from_segment)
    b = network.segment(to_segment)
    if a.end == b.start:
        return 0.0, Route.of([from_segment, to_segment])
    d, node_path = astar(
        network,
        a.end,
        b.start,
        heuristic=combined_heuristic(network, b.start, landmarks),
        stats=stats,
    )
    if math.isinf(d):
        return math.inf, Route.empty()
    bridge = node_path_to_route(network, node_path)
    return d, Route.of([from_segment, *bridge.segment_ids, to_segment])


def segment_route_length(network: RoadNetwork, route: Route) -> float:
    """Length of a route in metres (thin wrapper for symmetry)."""
    return route.length(network)
