"""K-shortest loopless paths (Yen's algorithm).

The traverse-graph inference (Algorithm 1 of the paper, line 13) ranks the
top-K shortest paths between each source/destination candidate-edge pair.
Yen's algorithm [16] is implemented generically over any directed graph given
as an adjacency function or mapping, so the same code serves both the
physical road network and the conceptual traverse graph.

Each call first copies the part of the graph reachable from the source into
int-indexed adjacency lists, so the many spur searches of one call run on
list indexing instead of hashing arbitrary node labels.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

__all__ = ["yen_k_shortest_paths"]

N = TypeVar("N", bound=Hashable)
# Either an adjacency function, or a plain mapping node -> (neighbor, weight)
# pairs.
Adjacency = Union[
    Callable[[N], Iterable[Tuple[N, float]]],
    Mapping[N, Sequence[Tuple[N, float]]],
]


def _index_graph(
    adj: Adjacency, source: N
) -> Tuple[List[N], Dict[N, int], List[List[Tuple[int, float]]]]:
    """Int-indexed copy of the subgraph reachable from ``source``.

    Returns ``(labels, index, out)``: node ``i`` is ``labels[i]`` (source
    first, then breadth-first discovery order), ``index`` inverts
    ``labels``, and ``out[i]`` lists node ``i``'s ``(neighbor, weight)``
    pairs in the adjacency's own order, duplicates kept.

    Raises:
        ValueError: On a negative edge weight.
    """
    adj_get = None if callable(adj) else adj.get
    labels: List[N] = [source]
    index: Dict[N, int] = {source: 0}
    out: List[List[Tuple[int, float]]] = []
    for u in labels:  # grows while iterating: a breadth-first sweep
        edges: List[Tuple[int, float]] = []
        for v, w in adj(u) if adj_get is None else adj_get(u, ()):
            if w < 0:
                raise ValueError("negative edge weights are not supported")
            j = index.get(v)
            if j is None:
                j = index[v] = len(labels)
                labels.append(v)
            edges.append((j, w))
        out.append(edges)
    return labels, index, out


def _spur_search(
    out: List[List[Tuple[int, float]]],
    spur: int,
    spur_edges: Sequence[Tuple[int, float]],
    target: int,
    blocked: Sequence[int],
) -> Tuple[float, List[int]]:
    """Dijkstra from ``spur`` to ``target`` on the indexed graph.

    ``spur_edges`` replaces the spur node's own out-list (Yen removes edges
    only at the spur), and ``blocked`` nodes start settled, so they are
    never reached.  Heap entries, tie-break counter and relaxation are
    those of a plain binary-heap Dijkstra, so the settle order — and with
    it the path returned on cost ties — follows the adjacency order.

    Returns:
        ``(cost, node_path)``; ``(inf, [])`` when the target is unreachable.
    """
    n = len(out)
    inf = math.inf
    dist = [inf] * n
    prev = [-1] * n
    settled = [False] * n
    for b in blocked:
        settled[b] = True
    heap: List[Tuple[float, int, int]] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    counter = 0
    d = 0.0
    u = spur
    edges = spur_edges
    while True:
        settled[u] = True
        if u == target:
            path = [target]
            while path[-1] != spur:
                path.append(prev[path[-1]])
            path.reverse()
            return d, path
        for v, w in edges:
            if settled[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                counter += 1
                heappush(heap, (nd, counter, v))
        while heap:
            d, __, u = heappop(heap)
            if not settled[u]:
                break
        else:
            return inf, []
        edges = out[u]


def yen_k_shortest_paths(
    adj: Adjacency,
    source: N,
    target: N,
    k: int,
) -> List[Tuple[float, List[N]]]:
    """The ``k`` shortest loopless paths from ``source`` to ``target``.

    Classic Yen construction: the best path comes from Dijkstra; each further
    path is found by branching at every *spur node* of the previous one with
    the shared prefix pinned and already-used continuations removed.

    Returns:
        Up to ``k`` ``(cost, node_path)`` pairs sorted by cost; fewer when
        the graph does not contain ``k`` distinct loopless paths.

    Raises:
        ValueError: If an edge reachable from ``source`` has a negative
            weight.
    """
    if k <= 0:
        return []
    if source == target:
        return [(0.0, [source])]
    labels, index, out = _index_graph(adj, source)
    t = index.get(target)
    if t is None:
        return []
    best_cost, best_path = _spur_search(out, 0, out[0], t, ())
    if not best_path:
        return []
    paths: List[Tuple[float, List[int]]] = [(best_cost, best_path)]
    # Candidate heap with a tiebreak counter so paths never compare.
    candidates: List[Tuple[float, int, int, List[int]]] = []
    seen_paths: Set[Tuple[int, ...]] = {tuple(best_path)}
    counter = 0
    # Lawler's modification: spur searches below the deviation index of the
    # path being branched would rebuild candidates an earlier iteration
    # already produced (identical root prefix, identical removed edges), so
    # each accepted path remembers where it deviated from its parent and
    # branching starts there.  The accepted paths are unchanged; only the
    # redundant Dijkstra runs disappear.
    deviation_of: List[int] = [0]

    while len(paths) < k:
        __, prev_path = paths[-1]
        # Prefix costs of the previous path, computed once per iteration —
        # recomputing the root cost edge-by-edge at every spur node makes
        # the classic formulation quadratic in the path length.
        prefix_costs = [0.0]
        for u, v in zip(prev_path, prev_path[1:]):
            w = min((wt for x, wt in out[u] if x == v), default=math.inf)
            prefix_costs.append(prefix_costs[-1] + w)
        for i in range(deviation_of[-1], len(prev_path) - 1):
            spur = prev_path[i]
            root_path = prev_path[: i + 1]
            # Every removed edge leaves the spur node: drop the continuations
            # of the accepted paths sharing this root from its out-list.
            removed = {
                p[i + 1] for __, p in paths if len(p) > i and p[: i + 1] == root_path
            }
            spur_edges = [(v, w) for v, w in out[spur] if v not in removed]
            # Loopless: the root nodes before the spur may not be revisited.
            spur_cost, spur_path = _spur_search(
                out, spur, spur_edges, t, root_path[:-1]
            )
            if not spur_path:
                continue
            total_path = root_path[:-1] + spur_path
            key = tuple(total_path)
            if key in seen_paths:
                continue
            seen_paths.add(key)
            counter += 1
            heapq.heappush(
                candidates, (prefix_costs[i] + spur_cost, counter, i, total_path)
            )
        if not candidates:
            break
        cost, __, dev, path = heapq.heappop(candidates)
        paths.append((cost, path))
        deviation_of.append(dev)
    return [(cost, [labels[j] for j in path]) for cost, path in paths]
