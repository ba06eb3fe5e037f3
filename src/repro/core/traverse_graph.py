"""Traverse-graph based local route inference — TGI (Sec. III-B.1, Alg. 1).

The traverse graph is a conceptual directed graph whose nodes are the road
segments actually travelled by some reference trajectory (*traverse edges*,
Definition 9) and whose links connect each node to the traverse edges in its
λ-neighborhood (Definition 8).  Inference = top-K shortest paths on this
graph between the candidate edges of ``q_i`` (sources) and of ``q_{i+1}``
(destinations), projected back onto the physical road network.

Both subroutines of Algorithm 1 are implemented:

* ``graph augmentation`` (line 9) — when the traverse graph is not strongly
  connected, the closest node pair across two components is linked in both
  directions until one component remains (the k = 1 connectivity
  augmentation the paper reduces to a spanning-tree problem);
* ``graph reduction`` (line 10) — hop-redundant links (a direct link whose
  endpoints are also joined by a two-link path of equal hop length through a
  third node) are removed, the paper's transitive-reduction step, which
  pays off at larger λ (reproduced in Fig. 11b / 12b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.reference import Reference
from repro.geo.point import Point, midpoint
from repro.mapmatching.base import find_candidates
from repro.roadnet.connectivity import strongly_connected_components
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.ksp import yen_k_shortest_paths_many
from repro.roadnet.neighborhood import HopLayers, hop_layers
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route

__all__ = ["TGIConfig", "TGIStats", "TraverseGraphInference"]

#: Candidate edges of q_i / q_{i+1} used as sources/destinations (4 keeps
#: both directions of the two nearest streets in play).
MAX_ENDPOINT_CANDIDATES = 4

#: Discount link costs by reference support, so the K-shortest-path search
#: ranks heavily travelled corridors ahead of geometrically shorter but
#: untravelled ones — the stated motivation of Sec. III-B.1 ("if R_a is the
#: shortest path but is not travelled by any reference while R_b is heavily
#: traversed but longer, we have more confidence in R_b").  False ranks by
#: plain segment length.
SUPPORT_WEIGHTED = True


def _filter_detours(
    network: RoadNetwork,
    routes: List[Route],
    ratio: float,
    yardstick: Optional[float] = None,
) -> List[Route]:
    """Drop routes longer than ``ratio`` times the reference length.

    With a ``yardstick`` (normally the network shortest-path distance
    between the pair's endpoints) the bound is strict — a candidate set can
    legitimately come back empty, and callers fall back to another method.
    Without one, the bound is relative to the shortest candidate, which
    always survives.
    """
    if not routes or ratio <= 0:
        return routes
    lengths = [r.length(network) for r in routes]
    if yardstick is not None:
        bound = max(yardstick, 1.0) * ratio
    else:
        bound = min(lengths) * ratio
    return [r for r, length in zip(routes, lengths) if length <= bound]


@dataclass(frozen=True, slots=True)
class TGIConfig:
    """TGI parameters (Table II defaults).

    Attributes:
        lam: λ, radius of the hop neighborhood (default 4).
        k_shortest: K of the K-shortest-path search per source/destination
            pair (the paper's k1, default 5).
        candidate_radius: ε of the candidate-edge search in metres.
        use_augmentation: Run the graph-augmentation subroutine.
        use_reduction: Run the graph-reduction subroutine.
        max_routes: Cap on distinct local routes returned.
        max_detour_ratio: Local routes longer than this multiple of the
            network shortest-path distance between the nearest candidate
            edges of q_i and q_{i+1} are discarded (all candidates connect
            the same endpoints, so gross detours are never competitive).
            Only when those edges are not connected is the shortest
            returned route the yardstick.
    """

    lam: int = 4
    k_shortest: int = 5
    candidate_radius: float = 50.0
    use_augmentation: bool = True
    use_reduction: bool = True
    max_routes: int = 10
    max_detour_ratio: float = 1.5

    def __post_init__(self) -> None:
        if self.lam < 1:
            raise ValueError("lambda must be at least 1")
        if self.k_shortest < 1:
            raise ValueError("k_shortest must be at least 1")
        # Negated, so that NaN (every comparison false) is refused too.
        if not self.candidate_radius > 0:
            raise ValueError("candidate_radius must be positive")


@dataclass(slots=True)
class TGIStats:
    """Instrumentation of one TGI invocation (drives Figs. 11–12)."""

    n_traverse_edges: int = 0
    n_links: int = 0
    n_links_removed: int = 0
    n_links_augmented: int = 0
    n_ksp_calls: int = 0


@dataclass(slots=True)
class _Link:
    """A traverse-graph link ``r → s``.

    ``via`` holds the intermediate physical segments between r and s
    (exclusive of both); None marks an augmentation bridge that must be
    re-routed on the road network at projection time.
    """

    weight: float
    hops: int
    via: Optional[Tuple[int, ...]]


def _cheapest_links(
    table: HopLayers,
    cost_get: Callable[[int, float], float],
    nodes: AbstractSet[int],
) -> Dict[int, _Link]:
    """Lines 6–8 for one origin: its links to the graph nodes in reach.

    One relaxation pass over the origin's hop layers under this pair's
    segment costs (``cost_get(segment, length)``); the last layer is
    relaxed only for segments in ``nodes``.  An entry keeps its first
    cheapest predecessor (ties keep the first relaxation), and a
    segment's link the first of its cheapest entries across layers; the
    link's ``hops`` is the layer that first reached the segment.  Links
    keep first-reach order, which K-shortest-path tie-breaking reads.

    ``via`` is the chosen walk's segments strictly between the origin and
    the target.  That walk never passes back through the origin (as a
    U-turn can): the part after such a pass reaches the target in fewer
    hops at no greater cost, so an earlier entry is chosen first.
    """
    dist = [0.0]
    pred = [0]
    for s, length, p, others in table.entries:
        c = cost_get(s, length)
        d = dist[p] + c
        for q in others:
            nd = dist[q] + c
            if nd < d:
                d = nd
                p = q
        dist.append(d)
        pred.append(p)
    numbered = table.entries
    out: Dict[int, _Link] = {}
    for s, length, hops, entries, last in table.reach:
        if s not in nodes:
            continue
        if entries:
            e = entries[0]
            weight = dist[e]
            for f in entries[1:]:
                if dist[f] < weight:
                    weight = dist[f]
                    e = f
            p = pred[e]
        if last is not None:
            q, others = last
            c = cost_get(s, length)
            d = dist[q] + c
            for r in others:
                nd = dist[r] + c
                if nd < d:
                    d = nd
                    q = r
            if not entries or d < weight:
                weight = d
                p = q
        via: Tuple[int, ...] = ()
        while p:
            via = (numbered[p - 1][0],) + via
            p = pred[p]
        out[s] = _Link(weight, hops, via)
    return out


class TraverseGraphInference:
    """Local route inference on the traverse graph.

    Everything about a link that depends on the network alone — which
    segments lie within λ−1 hops of an origin, and in which order a
    relaxation meets them — is kept per origin segment
    (:func:`~repro.roadnet.neighborhood.hop_layers`), as are segment
    midpoints.  A query pair pays only for its support-weighted costs.
    Both memos grow to at most one entry per network segment.

    Args:
        engine: The :class:`~repro.roadnet.engine.RoutingEngine`, TGI's
            only path to the road network: candidate edges,
            reference-support sets and bridge routes.  Typically an HRIS
            instance's, to share its caches; None builds a private one
            over ``network``.  Results are identical either way.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: TGIConfig = TGIConfig(),
        engine=None,
    ) -> None:
        self._network = network
        self._config = config
        if engine is None:
            engine = RoutingEngine(network)
        self._engine = engine
        self._hop_tables: Dict[int, HopLayers] = {}
        self._midpoints: Dict[int, Tuple[float, float]] = {}

    def infer(
        self,
        qi: Point,
        qi1: Point,
        references: Sequence[Reference],
        traversed: Optional[Sequence[FrozenSet[int]]] = None,
    ) -> Tuple[List[Route], TGIStats]:
        """Infer the local routes between ``q_i`` and ``q_{i+1}``.

        Args:
            traversed: The references' traversed-segment sets
                (:meth:`~repro.roadnet.engine.RoutingEngine.traversed_segments`),
                aligned with ``references``, from a caller that needs them
                too; None asks the engine here.

        Returns:
            ``(routes, stats)``.  Routes are deduplicated, ordered by
            traverse-graph path cost, at most ``max_routes`` of them; empty
            when there are no references or no connectable candidates.
        """
        cfg = self._config
        stats = TGIStats()

        support = self._collect_support(references, traversed)
        traverse_edges = set(support)
        stats.n_traverse_edges = len(traverse_edges)
        if not traverse_edges:
            return [], stats

        sources = self._endpoint_candidates(qi)
        destinations = self._endpoint_candidates(qi1)
        if not sources or not destinations:
            return [], stats

        nodes: Set[int] = set(traverse_edges) | set(sources) | set(destinations)
        links = self._build_links(nodes, traverse_edges, sources, support)
        stats.n_links = sum(len(v) for v in links.values())

        if cfg.use_augmentation:
            stats.n_links_augmented = self._augment(nodes, links)
        if cfg.use_reduction:
            stats.n_links_removed = self._reduce(links)

        # Materialised adjacency, indexed once by the one K-shortest-path
        # call that serves every source/destination pair.
        adj_lists: Dict[int, Tuple[Tuple[int, float], ...]] = {
            node: tuple((target, link.weight) for target, link in out.items())
            for node, out in links.items()
        }

        stats.n_ksp_calls = len(sources) * len(destinations)
        seen: Set[Tuple[int, ...]] = set()
        scored: List[Tuple[float, Route]] = []
        for ranked in yen_k_shortest_paths_many(
            adj_lists, sources, destinations, cfg.k_shortest
        ):
            for cost, node_path in ranked:
                route = self._project(node_path, links)
                if route is None:
                    continue
                key = route.segment_ids
                if key in seen:
                    continue
                seen.add(key)
                scored.append((cost, route))
        scored.sort(key=lambda pair: pair[0])
        routes = [route for __, route in scored]
        gap, direct = self._engine.shortest_route_between_segments(
            sources[0], destinations[0]
        )
        yardstick = direct.length(self._network) if not math.isinf(gap) else None
        routes = _filter_detours(
            self._network, routes, cfg.max_detour_ratio, yardstick=yardstick
        )
        return routes[: cfg.max_routes], stats

    # -------------------------------------------------------------- building

    def _collect_support(
        self,
        references: Sequence[Reference],
        traversed: Optional[Sequence[FrozenSet[int]]] = None,
    ) -> Dict[int, int]:
        """Lines 1–4 of Algorithm 1: the traverse edges — direction-consistent
        candidate edges of all reference points (the archive map-matching
        approximation) — with their support count |C_i(r)|."""
        if traversed is None:
            radius = self._config.candidate_radius
            traversed = [
                self._engine.traversed_segments(ref, radius) for ref in references
            ]
        support: Dict[int, int] = {}
        for segment_ids in traversed:
            for sid in segment_ids:
                support[sid] = support.get(sid, 0) + 1
        return support

    def _supported_costs(self, support: Dict[int, int]) -> Dict[int, float]:
        """Link-cost contributions of the supported segments.

        With support weighting, a segment travelled by c references costs
        ``length / (1 + c)`` — popular corridors look short to the
        K-shortest-path search, untravelled bridges stay expensive.  Any
        other segment costs its length (``length / 1.0``, the same float).
        """
        if not SUPPORT_WEIGHTED:
            return {}
        segment = self._network.segment
        return {sid: segment(sid).length / (1.0 + c) for sid, c in support.items()}

    def _endpoint_candidates(self, q: Point) -> List[int]:
        """Candidate edges of a query point, nearest first.

        Deliberately NOT filtered by the macro q_i → q_{i+1} heading: a
        time-optimal true route regularly departs against the straight
        line (e.g. backtracking to an arterial), and dropping its first
        segment forces every inferred route into the wrong corridor.  Both
        directions of the nearest street tie on distance and therefore
        both make the cut; the K-shortest-path costs decide between them.
        """
        cands = find_candidates(
            self._engine, q, self._config.candidate_radius, MAX_ENDPOINT_CANDIDATES
        )
        return [c.segment.segment_id for c in cands]

    def _build_links(
        self,
        nodes: Set[int],
        traverse_edges: Set[int],
        sources: Sequence[int],
        support: Dict[int, int],
    ) -> Dict[int, Dict[int, _Link]]:
        """Lines 6–8: link every expandable node to the graph nodes within
        its λ-neighborhood, remembering the physical segments in between.

        Destination-only nodes are never expanded (nothing should leave the
        destination), but they are valid link *targets* because they belong
        to ``nodes``.
        """
        links: Dict[int, Dict[int, _Link]] = {}
        cost_get = self._supported_costs(support).get
        for r in traverse_edges | set(sources):
            out = _cheapest_links(self._hop_table(r), cost_get, nodes)
            if out:
                links[r] = out
        return links

    def _hop_table(self, origin: int) -> HopLayers:
        """The λ−1 hop layers of ``origin``, built at its first expansion."""
        table = self._hop_tables.get(origin)
        if table is None:
            table = self._hop_tables[origin] = hop_layers(
                self._network, origin, self._config.lam - 1
            )
        return table

    # ---------------------------------------------------------- augmentation

    def _augment(self, nodes: Set[int], links: Dict[int, Dict[int, _Link]]) -> int:
        """Graph augmentation: stitch SCCs through closest node pairs.

        Adds a bidirectional bridge between the euclidean-closest node pair
        of two different strongly connected components, repeating until the
        graph is one SCC.  Bridge links carry ``via=None`` and are re-routed
        on the physical network during projection.

        Returns:
            Number of directed links added.
        """
        added = 0
        midpoints = self._midpoints
        for sid in nodes:
            if sid not in midpoints:
                poly = self._network.segment(sid).polyline
                mid = midpoint(poly[0], poly[-1])
                midpoints[sid] = (mid.x, mid.y)

        def adjacency(node: int):
            return links.get(node, ())

        hypot = math.hypot
        guard = 0
        while guard <= len(nodes):
            guard += 1
            sccs = strongly_connected_components(list(nodes), adjacency)
            if len(sccs) <= 1:
                break
            # Closest pair across the two nearest components (greedy merge),
            # scanned in the components' own order: twin carriageways share
            # a midpoint, so exact distance ties are common and the first
            # pair found must win.
            members = [list(component) for component in sccs]
            places = [[midpoints[sid] for sid in member] for member in members]
            best_pair: Optional[Tuple[int, int]] = None
            best_dist = math.inf
            for idx_a, member_a in enumerate(members):
                for idx_b in range(idx_a + 1, len(members)):
                    place_b = places[idx_b]
                    for a, (xa, ya) in zip(member_a, places[idx_a]):
                        # Point.distance_to's arithmetic; the first of equal
                        # minima wins, as in a scan with a strict ``<``.
                        ds = [hypot(xa - xb, ya - yb) for xb, yb in place_b]
                        d = min(ds)
                        if d < best_dist:
                            best_dist = d
                            best_pair = (a, members[idx_b][ds.index(d)])
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

    # ------------------------------------------------------------- reduction

    @staticmethod
    def _reduce(links: Dict[int, Dict[int, _Link]]) -> int:
        """Graph reduction: drop hop-redundant direct links.

        The link ``i → k`` is redundant when some intermediate ``j``
        satisfies ``i → j``, ``j → k`` and the two-step hop distance does
        not exceed the direct one — the transitive-reduction criterion of
        the paper on the hop metric.

        Returns:
            Number of links removed.
        """
        removed = 0
        for i, out in links.items():
            targets = list(out.keys())
            redundant: Set[int] = set()
            for j in targets:
                if j in redundant:
                    continue
                j_out = links.get(j)
                if not j_out:
                    continue
                for k in targets:
                    if k == j or k in redundant:
                        continue
                    jk = j_out.get(k)
                    if jk is None:
                        continue
                    if out[j].hops + jk.hops <= out[k].hops:
                        redundant.add(k)
            for k in redundant:
                del out[k]
                removed += 1
        return removed

    # ------------------------------------------------------------ projection

    def _project(
        self, node_path: List[int], links: Dict[int, Dict[int, _Link]]
    ) -> Optional[Route]:
        """Line 14: expand a traverse-graph path to a physical route."""
        ids: List[int] = [node_path[0]]
        for a, b in zip(node_path, node_path[1:]):
            link = links[a][b]
            if link.via is not None:
                ids.extend(link.via)
                ids.append(b)
                continue
            gap, bridge = self._engine.shortest_route_between_segments(a, b)
            if math.isinf(gap):
                return None
            ids.extend(bridge.segment_ids[1:])
        return Route.of(ids).dedupe_consecutive()
