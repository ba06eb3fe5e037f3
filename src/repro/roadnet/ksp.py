"""K-shortest loopless paths (Yen's algorithm).

The traverse-graph inference (Algorithm 1 of the paper, line 13) ranks the
top-K shortest paths between every source and destination candidate edge
of a query pair.  Yen's algorithm [16] is implemented generically over any
directed graph given as an adjacency function or mapping, so the same code
serves both the physical road network and the conceptual traverse graph.

:func:`yen_k_shortest_paths_many` answers all source/target pairs of one
graph in a single call, and :func:`yen_k_shortest_paths` is its one-pair
case.  One call

* copies the part of the graph reachable from the sources into
  int-indexed adjacency lists, so every search runs on list indexing
  instead of hashing arbitrary node labels;
* takes each target's first path from one full Dijkstra per source (a
  settled node's predecessor never changes, so this is the path a search
  stopped at the target returns);
* runs one reverse Dijkstra per target for the lower bounds ``h(v)`` on
  the cost from ``v`` to the target, and uses them to skip the spur
  searches of a Yen iteration that could only queue a candidate behind
  ``need`` cheaper ones (``need`` = paths still to accept) — such a
  candidate is never accepted — and to keep the remaining spur searches
  from expanding nodes past that bound.

The result is exactly that of plain Yen with Lawler's deviation index:
the same paths, the same float costs (root prefix plus spur cost, summed
forward) and the same pick among equal-cost paths.
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
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

__all__ = ["yen_k_shortest_paths", "yen_k_shortest_paths_many"]

N = TypeVar("N", bound=Hashable)
# Either an adjacency function, or a plain mapping node -> (neighbor, weight)
# pairs.
Adjacency = Union[
    Callable[[N], Iterable[Tuple[N, float]]],
    Mapping[N, Sequence[Tuple[N, float]]],
]
_Edges = List[Tuple[int, float]]
# Per node, filled at first use: neighbor -> its cheapest parallel edge.
_Lowest = List[Optional[Dict[int, float]]]

#: Relative slack on the spur-search cut.  Lower bounds are summed
#: backwards from the target while Yen's costs are summed forwards, so
#: the two can disagree in the last bits; a spur search is skipped only
#: when its bound exceeds the ``need``-th cheapest queued cost by more
#: than this factor.
BOUND_SLACK = 1e-9


def _index_graph(
    adj: Adjacency, roots: Iterable[N]
) -> Tuple[List[N], Dict[N, int], List[_Edges]]:
    """Int-indexed copy of the subgraph reachable from ``roots``.

    Returns ``(labels, index, out)``: node ``i`` is ``labels[i]`` (the
    roots first, then breadth-first discovery order), ``index`` inverts
    ``labels``, and ``out[i]`` lists node ``i``'s ``(neighbor, weight)``
    pairs in the adjacency's own order, duplicates kept.

    Raises:
        ValueError: On a negative edge weight.
    """
    adj_get = None if callable(adj) else adj.get
    labels: List[N] = []
    index: Dict[N, int] = {}
    for root in roots:
        if root not in index:
            index[root] = len(labels)
            labels.append(root)
    out: List[_Edges] = []
    for u in labels:  # grows while iterating: a breadth-first sweep
        edges: _Edges = []
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


def _dijkstra(
    out: List[_Edges],
    start: int,
    start_edges: Sequence[Tuple[int, float]],
    target: int,
    blocked: Sequence[int],
    h: Sequence[float],
    limit: float,
) -> Tuple[List[float], List[int]]:
    """Dijkstra from ``start`` on the indexed graph until ``target`` settles.

    ``start_edges`` replaces the start node's own out-list (Yen removes
    edges only at the spur), and ``blocked`` nodes start settled, so they
    are never reached.  No node ``v`` is queued at a distance ``d`` with
    ``d + h[v] > limit``: no path through it could come in under the
    limit.  Heap entries, tie-break counter and relaxation are otherwise
    those of a plain binary-heap Dijkstra, so the settle order — and with
    it the path found on cost ties — follows the adjacency order.

    Returns:
        ``(dist, prev)``: ``dist[target]`` is the target's cost, inf when
        it is not reached within the limit.  A settled node's entries never
        change afterwards, so a search with no target (-1) gives every
        reachable node the path and cost a search stopped at it finds.
    """
    n = len(out)
    dist = [math.inf] * n
    dist[start] = 0.0
    prev = [-1] * n
    settled = [False] * n
    for b in blocked:
        settled[b] = True
    heap: List[Tuple[float, int, int]] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    counter = 0
    d = 0.0
    u = start
    edges = start_edges
    while u != target:
        settled[u] = True
        for v, w in edges:
            if settled[v]:
                continue
            nd = d + w
            if nd < dist[v] and nd + h[v] <= limit:
                dist[v] = nd
                prev[v] = u
                counter += 1
                heappush(heap, (nd, counter, v))
        while heap:
            d, __, u = heappop(heap)
            if not settled[u]:
                break
        else:
            break
        edges = out[u]
    return dist, prev


def _path_to(prev: List[int], start: int, node: int) -> List[int]:
    """The path from ``start`` to ``node`` read back through ``prev``."""
    path = [node]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _path_costs(
    out: List[_Edges], lowest: _Lowest, path: List[int], costs: List[float]
) -> List[float]:
    """Extend ``costs``, the costs of ``path``'s first prefixes, to all of
    ``path``: each edge weighs its cheapest parallel edge, summed forward.

    ``lowest[u]`` maps each neighbor of ``u`` to that weight; a node's map
    is built the first time a path leaves it.
    """
    for j in range(len(costs) - 1, len(path) - 1):
        u = path[j]
        weights = lowest[u]
        if weights is None:
            weights = lowest[u] = {}
            for v, w in out[u]:
                # min()'s rule: a later parallel edge wins only if lighter.
                if v not in weights or w < weights[v]:
                    weights[v] = w
        costs.append(costs[-1] + weights[path[j + 1]])
    return costs


def _cut_limit(cheapest: List[float], need: int) -> float:
    """The cost past which no candidate can be accepted any more: the
    ``need``-th cheapest queued cost (``cheapest`` holds the negated
    costs of the ``need`` cheapest), with :data:`BOUND_SLACK`."""
    if len(cheapest) < need:
        return math.inf
    return -cheapest[0] * (1.0 + BOUND_SLACK)


def _yen(
    out: List[_Edges],
    lowest: _Lowest,
    first: Tuple[float, List[int]],
    target: int,
    h: Sequence[float],
    ranked: Dict[int, List[Tuple[float, int]]],
    k: int,
) -> List[Tuple[float, List[int]]]:
    """Yen's iterations from the first path ``first`` to ``target``.

    ``h`` holds the costs to ``target``, so ``h[u] <= w + h[v]`` on every
    edge ``u → v``, ``ranked`` caches, per node ``u``, its out-edges as
    ``(w + h[v], v)`` in ascending order, and ``lowest`` is
    :func:`_path_costs`' lookup.  Candidates are keyed
    ``(cost, iteration, spur index)``: the order in which plain Yen pushes
    them, so equal costs pop the same way however the spur searches below
    are ordered.
    """
    paths: List[Tuple[float, List[int]]] = [first]
    candidates: List[Tuple[float, int, int, List[int], List[float]]] = []
    seen_paths: Set[Tuple[int, ...]] = {tuple(first[1])}
    # Lawler's modification: spur searches below the deviation index of the
    # path being branched would rebuild candidates an earlier iteration
    # already produced (identical root prefix, identical removed edges), so
    # each accepted path remembers where it deviated from its parent and
    # branching starts there.
    dev = 0
    # Prefix costs of the path being branched, computed once per path —
    # recomputing the root cost edge-by-edge at every spur node makes the
    # classic formulation quadratic in the path length.
    prefix_costs = _path_costs(out, lowest, first[1], [0.0])
    heappop, heappush = heapq.heappop, heapq.heappush
    heapreplace = heapq.heapreplace
    inf = math.inf
    iteration = 0
    while len(paths) < k:
        iteration += 1
        __, prev_path = paths[-1]
        last = len(prev_path) - 1
        position = {node: i for i, node in enumerate(prev_path)}
        # Every removed edge leaves a spur node: at spur index i, the
        # continuations of the accepted paths sharing the root
        # prev_path[: i + 1].  A path shares the roots up to its common
        # prefix with prev_path, so one prefix comparison per path fills
        # the removed sets of every spur index.
        removed_at: List[Set[int]] = [set() for __ in range(dev, last)]
        for __, p in paths:
            shared = 0
            for x, y in zip(p, prev_path):
                if x != y:
                    break
                shared += 1
            for i in range(dev, min(shared, last)):
                removed_at[i - dev].add(p[i + 1])
        # A lower bound on the candidate of every spur index: its root cost
        # plus the cheapest allowed first edge and way on from there.
        spurs: List[Tuple[float, int, Set[int]]] = []
        for i in range(dev, last):
            spur = prev_path[i]
            removed = removed_at[i - dev]
            firsts = ranked.get(spur)
            if firsts is None:
                firsts = ranked[spur] = sorted(
                    (w + h[v], v) for v, w in out[spur] if h[v] < inf
                )
            for first_cost, v in firsts:
                # Loopless: the root nodes before the spur are blocked.
                if v not in removed and position.get(v, i) >= i:
                    spurs.append((prefix_costs[i] + first_cost, i, removed))
                    break
        spurs.sort()
        # At most ``need`` more candidates are accepted.  A candidate that
        # costs more than the need-th cheapest queued one is never popped;
        # nor is a later re-discovery of it, which costs the same up to
        # rounding, far inside BOUND_SLACK.
        need = k - len(paths)
        # Max-heap (negated) of the ``need`` cheapest queued costs.
        cheapest = [-c[0] for c in heapq.nsmallest(need, candidates)]
        heapq.heapify(cheapest)
        limit = _cut_limit(cheapest, need)
        for bound, i, removed in spurs:
            if bound > limit:
                break
            spur = prev_path[i]
            prefix = prefix_costs[i]
            dist, prev = _dijkstra(
                out,
                spur,
                [(v, w) for v, w in out[spur] if v not in removed],
                target,
                prev_path[:i],
                h,
                # An overflowed prefix must not turn "no limit" into nan.
                limit - prefix if limit < inf else inf,
            )
            spur_cost = dist[target]
            if spur_cost == inf:
                continue
            total_path = prev_path[:i] + _path_to(prev, spur, target)
            key = tuple(total_path)
            if key in seen_paths:
                continue
            seen_paths.add(key)
            cost = prefix + spur_cost
            heappush(
                candidates, (cost, iteration, i, total_path, prefix_costs[: i + 1])
            )
            if len(cheapest) < need:
                heappush(cheapest, -cost)
            elif cost < -cheapest[0]:
                heapreplace(cheapest, -cost)
            limit = _cut_limit(cheapest, need)
        if not candidates:
            break
        cost, __, dev, path, prefix_costs = heappop(candidates)
        paths.append((cost, path))
        _path_costs(out, lowest, path, prefix_costs)
    return paths


def yen_k_shortest_paths_many(
    adj: Adjacency,
    sources: Sequence[N],
    targets: Sequence[N],
    k: int,
) -> List[List[Tuple[float, List[N]]]]:
    """The ``k`` shortest loopless paths of every source/target pair.

    Returns:
        One list per pair, source-major (``for s in sources for t in
        targets``), each exactly ``yen_k_shortest_paths(adj, s, t, k)``.

    Raises:
        ValueError: If an edge reachable from a source that is paired with
            a target other than itself has a negative weight.
    """
    if k <= 0:
        return [[] for __ in range(len(sources) * len(targets))]
    labels, index, out = _index_graph(
        adj, [s for s in sources if any(t != s for t in targets)]
    )
    into: List[_Edges] = [[] for __ in out]  # the reversed graph
    for u, edges in enumerate(out):
        for v, w in edges:
            into[v].append((u, w))
    lowest: _Lowest = [None] * len(out)
    # Per target: the costs to it, and the ranked out-edges :func:`_yen` uses.
    bounds_to: Dict[int, Tuple[List[float], Dict[int, List[Tuple[float, int]]]]] = {}
    no_bound = [0.0] * len(out)
    results: List[List[Tuple[float, List[N]]]] = []
    for source in sources:
        s = index.get(source)
        # One search to exhaustion serves every target (there is none for a
        # source paired only with itself, which was not indexed).
        dist, prev = (
            _dijkstra(out, s, out[s], -1, (), no_bound, math.inf)
            if s is not None
            else ([], [])
        )
        for target in targets:
            if source == target:
                results.append([(0.0, [source])])
                continue
            t = index.get(target)
            if t is None or dist[t] == math.inf:
                results.append([])
                continue
            paths = [(dist[t], _path_to(prev, s, t))]
            if k > 1:
                bounds = bounds_to.get(t)
                if bounds is None:
                    # A search from the target over the reversed graph.
                    h, __ = _dijkstra(into, t, into[t], -1, (), no_bound, math.inf)
                    bounds = bounds_to[t] = (h, {})
                paths = _yen(out, lowest, paths[0], t, *bounds, k)
            results.append([(cost, [labels[j] for j in p]) for cost, p in paths])
    return results


def yen_k_shortest_paths(
    adj: Adjacency,
    source: N,
    target: N,
    k: int,
) -> List[Tuple[float, List[N]]]:
    """The ``k`` shortest loopless paths from ``source`` to ``target``.

    Classic Yen construction: the best path comes from Dijkstra; each further
    path is found by branching at every *spur node* of the previous one with
    the shared prefix pinned and already-used continuations removed.  The
    one-pair case of :func:`yen_k_shortest_paths_many`.

    Returns:
        Up to ``k`` ``(cost, node_path)`` pairs sorted by cost; fewer when
        the graph does not contain ``k`` distinct loopless paths.

    Raises:
        ValueError: If an edge reachable from ``source`` has a negative
            weight.
    """
    return yen_k_shortest_paths_many(adj, [source], [target], k)[0]
