"""Connectivity analysis, generic over abstract directed graphs.

Used in two places: validating that generated road networks are strongly
connected (so every OD pair is routable), and the *graph augmentation*
subroutine of the traverse-graph inference (Algorithm 1, line 9), which must
detect and stitch together disconnected components of the conceptual graph.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
    TypeVar,
)

from repro.roadnet.network import RoadNetwork

__all__ = [
    "strongly_connected_components",
    "weakly_connected_components",
    "is_strongly_connected",
    "network_strongly_connected",
]

N = TypeVar("N", bound=Hashable)
Adjacency = Callable[[N], Iterable[N]]


def strongly_connected_components(
    nodes: Iterable[N], adj: Adjacency
) -> List[Set[N]]:
    """Tarjan's SCC algorithm, iterative to avoid recursion limits.

    Nodes are relabelled to ints in discovery order, which is also their
    Tarjan index, so the bookkeeping runs on int lists; only the label
    lookup per edge hashes.

    Returns:
        SCCs in reverse topological order of the condensation.  Each set
        is filled in stack-pop order, which fixes its iteration order.
    """
    index_of: Dict[N, int] = {}
    labels: List[N] = []
    lowlink: List[int] = []
    on_stack: List[bool] = []
    stack: List[int] = []
    sccs: List[Set[N]] = []
    index_get = index_of.get

    for root in nodes:
        if root in index_of:
            continue
        r = index_of[root] = len(labels)
        labels.append(root)
        lowlink.append(r)
        on_stack.append(True)
        stack.append(r)
        # Each frame: (node, iterator over its successors).
        work: List[Tuple[int, Iterator[N]]] = [(r, iter(adj(root)))]
        while work:
            node, it = work[-1]
            for succ in it:
                j = index_get(succ)
                if j is None:
                    j = index_of[succ] = len(labels)
                    labels.append(succ)
                    lowlink.append(j)
                    on_stack.append(True)
                    stack.append(j)
                    work.append((j, iter(adj(succ))))
                    break
                if on_stack[j] and j < lowlink[node]:
                    lowlink[node] = j
            else:
                work.pop()
                low = lowlink[node]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == node:
                    component: Set[N] = set()
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.add(labels[member])
                        if member == node:
                            break
                    sccs.append(component)
    return sccs


def weakly_connected_components(
    nodes: Iterable[N], adj: Adjacency, radj: Adjacency
) -> List[Set[N]]:
    """Connected components ignoring edge direction.

    Args:
        adj: Forward adjacency.
        radj: Reverse adjacency (predecessors).
    """
    seen: Set[N] = set()
    components: List[Set[N]] = []
    for root in nodes:
        if root in seen:
            continue
        component: Set[N] = {root}
        seen.add(root)
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for nxt in list(adj(node)) + list(radj(node)):
                if nxt not in seen:
                    seen.add(nxt)
                    component.add(nxt)
                    frontier.append(nxt)
        components.append(component)
    return components


def is_strongly_connected(nodes: Iterable[N], adj: Adjacency) -> bool:
    """True if the abstract graph has exactly one SCC (or is empty)."""
    node_list = list(nodes)
    if not node_list:
        return True
    sccs = strongly_connected_components(node_list, adj)
    return len(sccs) == 1


def network_strongly_connected(network: RoadNetwork) -> bool:
    """True if every vertex of the road network can reach every other."""

    def adj(node_id: int) -> Iterable[int]:
        return (network.segment(sid).end for sid in network.out_segments(node_id))

    return is_strongly_connected((n.node_id for n in network.nodes()), adj)
