"""λ-neighborhoods over road segments (Definition 8).

``h(r, s)`` is the minimum number of hops an object needs to move from
segment ``r`` to segment ``s`` along the directed segment-adjacency graph:
``h(r, r) = 0``, immediate successors have ``h = 1``, and so on.  The
λ-neighborhood ``N_λ(r) = {s : h(r, s) < λ}``; with λ = 2 it contains the
segments "within one hop", matching the paper's Figure 4 walkthrough.

:func:`hop_layers` keeps every walk of up to ``max_hops`` successor steps
from a segment, layer by layer, so that a caller can find the cheapest
walks under costs that change per call without redoing the traversal:
TGI links each traverse-graph node to the nodes of its λ-neighbourhood
this way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.roadnet.network import RoadNetwork

__all__ = [
    "HopLayers",
    "hop_distances",
    "hop_layers",
    "lambda_neighborhood",
    "hop_distance",
]


def hop_distances(
    network: RoadNetwork, segment_id: int, max_hops: int
) -> Dict[int, int]:
    """BFS hop distances from ``segment_id`` to all segments within
    ``max_hops`` (inclusive).  The source maps to 0.
    """
    if max_hops < 0:
        raise ValueError("max_hops must be non-negative")
    dist: Dict[int, int] = {segment_id: 0}
    frontier = deque([segment_id])
    while frontier:
        current = frontier.popleft()
        d = dist[current]
        if d == max_hops:
            continue
        for nxt in network.successors(current):
            if nxt not in dist:
                dist[nxt] = d + 1
                frontier.append(nxt)
    return dist


def lambda_neighborhood(
    network: RoadNetwork, segment_id: int, lam: int
) -> Set[int]:
    """``N_λ(r)``: segments reachable in strictly fewer than ``lam`` hops.

    The source segment itself (``h = 0``) is excluded — a traverse-graph
    link from a segment to itself is never useful.
    """
    if lam <= 0:
        return set()
    dist = hop_distances(network, segment_id, lam - 1)
    return {sid for sid, h in dist.items() if 0 < h < lam}


def hop_distance(
    network: RoadNetwork, from_segment: int, to_segment: int, max_hops: int
) -> int:
    """``h(r, s)`` bounded by ``max_hops``; returns ``max_hops + 1`` when the
    target is farther than the bound (a "greater than" sentinel).
    """
    dist = hop_distances(network, from_segment, max_hops)
    return dist.get(to_segment, max_hops + 1)


@dataclass(frozen=True, slots=True)
class HopLayers:
    """The first ``max_hops`` successor layers of one origin segment.

    Layer 0 is the origin alone, and layer ``h`` holds every segment that
    one successor step takes from a segment of layer ``h - 1``, listed in
    first-seen order: layer ``h - 1`` in its own order, each entry's
    successors in the network's order.  A segment appears at most once
    per layer but may recur in later ones; a U-turn puts the origin itself
    in layer 2.  An entry's predecessors are the entries of the layer
    before that step onto its segment, in the order a layer-by-layer
    relaxation meets them.  Both orders depend on the network alone.

    The entries of every layer but the last are numbered: entry 0 is the
    origin, then layer 1 in order, then layer 2, and so on.  Entries of
    the last layer lead nowhere within the budget, so each is kept with
    its segment in ``reach``, where a caller that needs only some
    segments can relax those alone.

    Attributes:
        origin: The origin segment.
        entries: ``(segment, length, first predecessor, other
            predecessors)`` for numbered entries ``1 ..`` (``entries[e -
            1]`` is entry ``e``); predecessors are entry numbers.
        reach: ``(segment, length, first layer, entries, last)`` for every
            segment other than the origin, in first-reach order.  The
            first layer is the hop distance ``h(origin, segment)``,
            ``entries`` the segment's numbered entries in layer order, and
            ``last`` the predecessors ``(first, others)`` of its entry in
            the last layer, or None.
    """

    origin: int
    entries: Tuple[Tuple[int, float, int, Tuple[int, ...]], ...]
    reach: Tuple[
        Tuple[
            int, float, int, Tuple[int, ...], Optional[Tuple[int, Tuple[int, ...]]]
        ],
        ...,
    ]


def hop_layers(network: RoadNetwork, segment_id: int, max_hops: int) -> HopLayers:
    """The first ``max_hops`` successor layers of ``segment_id``.

    Raises:
        ValueError: If ``max_hops`` is negative.
    """
    if max_hops < 0:
        raise ValueError("max_hops must be non-negative")
    successors = network.successors
    segment = network.segment
    segments: List[int] = [segment_id]
    entries: List[Tuple[int, float, int, Tuple[int, ...]]] = []
    # segment -> [length, first layer, numbered entries, last-layer preds]
    reach: Dict[int, list] = {}
    layer = [0]
    for hop in range(1, max_hops + 1):
        preds_of: Dict[int, List[int]] = {}
        for p in layer:
            for s in successors(segments[p]):
                preds = preds_of.get(s)
                if preds is None:
                    preds_of[s] = [p]
                else:
                    preds.append(p)
        layer = []
        for s, preds in preds_of.items():
            first, others = preds[0], tuple(preds[1:])
            length = segment(s).length
            seen = None
            if s != segment_id:
                seen = reach.setdefault(s, [length, hop, [], None])
            if hop == max_hops:
                if seen is not None:
                    seen[3] = (first, others)
                continue
            e = len(segments)
            segments.append(s)
            entries.append((s, length, first, others))
            layer.append(e)
            if seen is not None:
                seen[2].append(e)
        if not layer:
            break
    return HopLayers(
        origin=segment_id,
        entries=tuple(entries),
        reach=tuple(
            (s, length, hop, tuple(numbered), last)
            for s, (length, hop, numbered, last) in reach.items()
        ),
    )
