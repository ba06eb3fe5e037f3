"""The traverse-graph building of TGI as it was before its static tables.

``TraverseGraphInference`` links each origin to the graph nodes in its
λ-neighbourhood by one pass over a per-segment table of hop layers
(:func:`repro.roadnet.neighborhood.hop_layers`), built once per origin,
and its augmentation reads memoised midpoint pairs through an int-list
Tarjan.  This module keeps what those replaced: a dict-based hop-bounded
relaxation per origin and per query pair, an augmentation over ``Point``
midpoints, and the label-keyed generic Tarjan.  :class:`ReferenceTGI` runs
them inside ``infer``.  Nothing in ``src/`` uses this module; the tests
compare against it with ``==``.
"""

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.traverse_graph import SUPPORT_WEIGHTED, TraverseGraphInference, _Link
from repro.geo.point import Point, midpoint


def reference_strongly_connected_components(nodes: Iterable, adj) -> List[Set]:
    """Tarjan's SCC algorithm over node labels (dict and set bookkeeping).

    Returns:
        SCCs in reverse topological order of the condensation, each set
        filled in stack-pop order.
    """
    index_of: Dict = {}
    lowlink: Dict = {}
    on_stack: Set = set()
    stack: List = []
    sccs: List[Set] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        work: List[tuple] = [(root, iter(adj(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: Set = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


class ReferenceTGI(TraverseGraphInference):
    """TGI whose link building and augmentation recompute everything per
    query pair, as before the hop tables."""

    def _segment_cost(self, sid: int, support: Dict[int, int]) -> float:
        length = self._network.segment(sid).length
        if not SUPPORT_WEIGHTED:
            return length
        return length / (1.0 + support.get(sid, 0))

    def _build_links(
        self,
        nodes: Set[int],
        traverse_edges: Set[int],
        sources: Sequence[int],
        support: Dict[int, int],
    ) -> Dict[int, Dict[int, _Link]]:
        links: Dict[int, Dict[int, _Link]] = {}
        expandable = traverse_edges | set(sources)
        cost_of: Dict[int, float] = {}
        succ_of: Dict[int, List[int]] = {}
        for r in expandable:
            neighborhood = self._hop_bounded_reach(r, support, cost_of, succ_of)
            out: Dict[int, _Link] = {}
            for s, (dist, hops, via) in neighborhood.items():
                if s in nodes and s != r:
                    out[s] = _Link(weight=dist, hops=hops, via=via)
            if out:
                links[r] = out
        return links

    def _hop_bounded_reach(
        self,
        origin: int,
        support: Dict[int, int],
        cost_of: Optional[Dict[int, float]] = None,
        succ_of: Optional[Dict[int, List[int]]] = None,
    ) -> Dict[int, Tuple[float, int, Tuple[int, ...]]]:
        """All segments within λ−1 successor hops of ``origin``: segment →
        (cheapest cost within the hop budget, hop count at which first
        reached, intermediate segments of the cheapest path)."""
        net = self._network
        max_hops = self._config.lam - 1
        if cost_of is None:
            cost_of = {}
        if succ_of is None:
            succ_of = {}
        frontier: Dict[int, Tuple[float, Tuple[int, ...]]] = {origin: (0.0, ())}
        best: Dict[int, Tuple[float, int, Tuple[int, ...]]] = {}
        for hop in range(1, max_hops + 1):
            nxt: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
            for sid, (dist, via) in frontier.items():
                succs = succ_of.get(sid)
                if succs is None:
                    succs = succ_of[sid] = net.successors(sid)
                nvia = via + (sid,) if sid != origin else ()
                for succ in succs:
                    cost = cost_of.get(succ)
                    if cost is None:
                        cost = cost_of[succ] = self._segment_cost(succ, support)
                    ndist = dist + cost
                    prev = nxt.get(succ)
                    if prev is None or ndist < prev[0]:
                        nxt[succ] = (ndist, nvia)
            for sid, (dist, via) in nxt.items():
                prev = best.get(sid)
                if prev is None or dist < prev[0]:
                    hops_first = prev[1] if prev is not None else hop
                    best[sid] = (dist, hops_first, via)
            frontier = nxt
            if not frontier:
                break
        best.pop(origin, None)
        return best

    def _augment(self, nodes: Set[int], links: Dict[int, Dict[int, _Link]]) -> int:
        added = 0
        midpoints: Dict[int, Point] = {}
        for sid in nodes:
            poly = self._network.segment(sid).polyline
            midpoints[sid] = midpoint(poly[0], poly[-1])

        def adjacency(node: int):
            return iter(links.get(node, {}))

        guard = 0
        while guard <= len(nodes):
            guard += 1
            sccs = reference_strongly_connected_components(list(nodes), adjacency)
            if len(sccs) <= 1:
                break
            best_pair: Optional[Tuple[int, int]] = None
            best_dist = math.inf
            for idx_a in range(len(sccs)):
                for idx_b in range(idx_a + 1, len(sccs)):
                    for a in sccs[idx_a]:
                        pa = midpoints[a]
                        for b in sccs[idx_b]:
                            d = pa.distance_to(midpoints[b])
                            if d < best_dist:
                                best_dist = d
                                best_pair = (a, b)
            if best_pair is None:
                break
            a, b = best_pair
            for u, v in ((a, b), (b, a)):
                if v not in links.setdefault(u, {}):
                    links[u][v] = _Link(
                        weight=best_dist + self._network.segment(v).length,
                        hops=1,
                        via=None,
                    )
                    added += 1
        return added
