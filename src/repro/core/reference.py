"""Reference-trajectory search (Sec. III-A, Definitions 6 and 7).

Given a consecutive query-point pair ``<q_i, q_{i+1}>``, find the historical
trajectories that hint at how objects travel between the two locations:

* **simple references** (Definition 6) — trajectories with a point within φ
  of both query points, travelling in the right direction, every in-between
  point satisfying the speed-ellipse condition
  ``d(p, q_i) + d(p, q_{i+1}) <= Δt · V_max``;
* **spliced references** (Definition 7) — virtual trajectories formed by
  joining the tail of a trajectory leaving ``q_i`` with the head of another
  arriving at ``q_{i+1}``, when the two come within ε of each other.

The search (:func:`assemble_references`) reads any
:class:`~repro.core.archive.ArchiveBackend`: one φ range query per pair
(``trajectories_near_pair``) for the candidates, then the candidate
trajectories themselves.  Every backend answers the range query in the
same canonical order, so the references (ref_ids, floats, splice
selections) are bit-identical whichever backend serves the archive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.archive import ArchiveBackend
from repro.geo.point import Point
from repro.roadnet.network import RoadNetwork
from repro.spatial.grid import GridIndex
from repro.trajectory.model import GPSPoint

__all__ = [
    "Reference",
    "ReferencePoint",
    "ReferenceSearch",
    "ReferenceSearchConfig",
    "assemble_references",
    "closest_references",
    "movement_direction",
    "reference_traversed_segments",
    "time_of_day_difference_s",
    "within_speed_ellipse",
]

#: Seconds per day, for time-of-day arithmetic.
SECONDS_PER_DAY = 86_400.0


def time_of_day_difference_s(t_a: float, t_b: float) -> float:
    """Circular time-of-day distance between two timestamps, in seconds.

    ``23:50`` and ``00:10`` are 20 minutes apart, not 23 h 40 min.
    """
    a = t_a % SECONDS_PER_DAY
    b = t_b % SECONDS_PER_DAY
    d = abs(a - b)
    return min(d, SECONDS_PER_DAY - d)


@dataclass(frozen=True, slots=True)
class ReferencePoint:
    """One observation of a reference, tagged with its owner.

    Attributes:
        point: Planar coordinate.
        ref_id: Id of the reference (unique within one search call).
        seq: Position of this point within the reference.
    """

    point: Point
    ref_id: int
    seq: int


@dataclass(frozen=True, slots=True)
class Reference:
    """A reference trajectory for one query pair.

    Attributes:
        ref_id: Id unique within the search call (the unit the popularity
            function counts).
        source_ids: Archive trajectory id(s) backing this reference — one
            for a simple reference, two for a spliced one.
        points: The ordered observations from the ``q_i`` side to the
            ``q_{i+1}`` side (the sub-trajectory ``T_i^k``).
        spliced: True for Definition 7 references.
    """

    ref_id: int
    source_ids: Tuple[int, ...]
    points: Tuple[Point, ...]
    spliced: bool

    def __len__(self) -> int:
        return len(self.points)


def movement_direction(points: Sequence[Point], index: int) -> Point:
    """Local direction of travel at ``points[index]`` (central difference).

    Returns the (unnormalised) vector from the previous to the next point —
    a zero vector for a single-point sequence or coincident neighbors.
    """
    prev_p = points[max(index - 1, 0)]
    next_p = points[min(index + 1, len(points) - 1)]
    return next_p - prev_p


def reference_traversed_segments(
    network: RoadNetwork,
    reference: "Reference",
    candidate_radius: float,
    candidate_lookup: Optional[Callable[[Point, float], Sequence]] = None,
) -> Set[int]:
    """Segments a reference plausibly travels on.

    The paper's preprocessing map-matches archive points onto segments, so
    a reference supports the *directed* segment it is moving along — not
    the opposite carriageway.  We approximate that matching by taking each
    point's candidate edges (Definition 5) and keeping only those whose
    direction agrees with the local movement direction (positive dot
    product); points with no discernible movement keep all candidates.

    Args:
        candidate_lookup: Optional replacement for
            ``network.candidate_edges`` returning the identical result —
            e.g. the routing engine's memoised lookup.
    """
    lookup = candidate_lookup if candidate_lookup is not None else network.candidate_edges
    traversed: Set[int] = set()
    pts = reference.points
    for i, p in enumerate(pts):
        direction = movement_direction(pts, i)
        moving = direction.norm() > 0.0
        for cand in lookup(p, candidate_radius):
            seg = cand.segment
            if moving:
                seg_dir = seg.polyline[-1] - seg.polyline[0]
                if direction.dot(seg_dir) < 0.0:
                    continue
            traversed.add(seg.segment_id)
    return traversed


@dataclass(frozen=True, slots=True)
class ReferenceSearchConfig:
    """Parameters of the reference search.

    Attributes:
        phi: Search radius φ around each query point (Table II: 500 m).
        splice_epsilon: Max gap ε between the two halves of a splice.
        enable_splicing: Whether to search for spliced references at all.
        splice_when_fewer_than: Spliced references are only searched when
            fewer than this many simple references were found.  The paper
            introduces splicing for "an area with sparse historical data"
            where simple references are too few to support the inference;
            in dense areas splices join unrelated trajectories and only add
            noise (quantified in benchmarks/test_ablations.py).
        max_references: Cap on returned references (closest kept) so a dense
            downtown pair cannot flood the local inference.
        time_of_day_window_s: When set, only trajectories whose anchor
            observation (the point nearest q_i) occurred within this
            time-of-day window of the query qualify as references — the
            "incorporate the time" extension of the paper's future work
            (commute-hour patterns differ from midnight patterns).  None
            (the default, and the paper's behaviour) disables the filter.
        splice_network_gap: Score splice joints by *network* distance, not
            just the euclidean ε test — two observations ε apart across a
            river with no bridge are not actually joinable.  Requires a
            routing engine on the search; its batched transition oracle
            answers every joint's distance from one frontier sweep per
            tail-side node.  Off by default (the paper, and the identity
            gates, use the pure euclidean Definition 7).
        splice_gap_detour: Max network/euclidean detour ratio a splice
            joint may have when ``splice_network_gap`` is on.
    """

    phi: float = 500.0
    splice_epsilon: float = 300.0
    enable_splicing: bool = True
    splice_when_fewer_than: int = 5
    max_references: int = 60
    time_of_day_window_s: Optional[float] = None
    splice_network_gap: bool = False
    splice_gap_detour: float = 3.0


# ------------------------------------------------------------------ kernel


def within_speed_ellipse(
    points: Sequence[Point], qi: Point, qi1: Point, budget: float
) -> bool:
    """Definition 6 condition 3: every point inside the speed ellipse.

    The same sums as ``p.distance_to(qi) + p.distance_to(qi1)``, read off
    the raw coordinates.
    """
    hypot = math.hypot
    ax, ay = qi.x, qi.y
    bx, by = qi1.x, qi1.y
    for p in points:
        x, y = p.x, p.y
        if not hypot(x - ax, y - ay) + hypot(x - bx, y - by) <= budget:
            return False
    return True


#: ``tid -> (index, observation)`` of a candidate's nearest observation
#: to one query point (see :func:`_anchor_lookup`).
_AnchorLookup = Callable[[int], Tuple[int, GPSPoint]]

#: How close to the φ rim, as a fraction of φ, an anchor found among the
#: range-query hits must lie to be re-checked by a full scan.
_RIM_TOLERANCE = 1e-9


def _anchor_lookup(
    archive: ArchiveBackend, q: Point, near: Dict[int, List[int]], phi: float
) -> _AnchorLookup:
    """Nearest observations to ``q`` of the candidates in ``near``.

    A candidate's nearest observation is one of its range-query hits
    ``near[tid]``: every other observation lies farther than φ.  So only
    the hits are scanned, under ``Trajectory.nearest_index``'s own rule.
    The range test compares ``hypot`` with φ while the scan compares
    squared distances, and the two can order a pair of points on either
    side of the rim differently; an anchor within ``1e-9·φ`` of the rim is
    therefore re-found by scanning the whole trajectory.

    One candidate may be screened as a simple reference, a splice tail and
    a splice head of the same pair, so each anchor is computed at most
    once; the memo lives for one query pair.
    """
    memo: Dict[int, Tuple[int, GPSPoint]] = {}
    rim = phi - _RIM_TOLERANCE * phi

    def anchor(tid: int) -> Tuple[int, GPSPoint]:
        found = memo.get(tid)
        if found is None:
            traj = archive.trajectory(tid)
            idx = traj.nearest_index(q, near[tid])
            if traj.points[idx].point.distance_to(q) >= rim:
                idx = traj.nearest_index(q)
            found = memo[tid] = (idx, traj.points[idx])
        return found

    return anchor


def _span(
    archive: ArchiveBackend, tid: int, start: int, stop: Optional[int]
) -> Tuple[Point, ...]:
    """Points of trajectory ``tid`` in the index slice ``[start:stop]``."""
    return tuple(p.point for p in archive.trajectory(tid).points[start:stop])


def _in_time_window(
    anchor_i: _AnchorLookup, tid: int, qi: GPSPoint, window: Optional[float]
) -> bool:
    """Time-of-day filter (see ``time_of_day_window_s``)."""
    if window is None:
        return True
    __, obs = anchor_i(tid)
    return time_of_day_difference_s(obs.t, qi.t) <= window


def closest_references(
    references: List[Reference], qi: Point, qi1: Point, max_references: int
) -> List[Reference]:
    """Keep the references hugging the query pair tightest, re-idded."""

    def tightness(ref: Reference) -> float:
        return ref.points[0].distance_to(qi) + ref.points[-1].distance_to(qi1)

    kept = sorted(references, key=tightness)[:max_references]
    return [
        Reference(
            ref_id=i,
            source_ids=r.source_ids,
            points=r.points,
            spliced=r.spliced,
        )
        for i, r in enumerate(kept)
    ]


def _network_reachable_pairs(
    best_pair: Dict[Tuple[int, int], Tuple[float, int, int]],
    tails: Dict[int, Tuple[int, Tuple[Point, ...]]],
    heads: Dict[int, Tuple[int, Tuple[Point, ...]]],
    network: RoadNetwork,
    engine,
    cfg: ReferenceSearchConfig,
) -> Dict[Tuple[int, int], Tuple[float, int, int]]:
    """Drop splice joints that are close in the plane but far on the road.

    Each joint's two observations are projected onto their nearest
    segments; the joint survives when the network distance between the
    projections stays within ``splice_gap_detour`` times ε.  All joints
    of the pair are announced to the engine's transition oracle first,
    so the oracle serves them from one sweep per tail-side node.
    """
    bound = cfg.splice_epsilon * cfg.splice_gap_detour
    oracle = engine.transition_oracle(bound)
    projections: Dict[Tuple[float, float], object] = {}

    def project(p: Point):
        key = (p.x, p.y)
        cand = projections.get(key)
        if cand is None:
            near = network.nearest_segments(p, 1)
            cand = near[0] if near else None
            projections[key] = cand
        return cand

    joints = []
    for key, (cost, a_idx, b_idx) in best_pair.items():
        a_tid, b_tid = key
        a_m, a_span = tails[a_tid]
        pa = a_span[a_idx - a_m]
        pb = heads[b_tid][1][b_idx]
        ca, cb = project(pa), project(pb)
        if ca is None or cb is None:
            continue
        joints.append((key, (cost, a_idx, b_idx), ca, cb))
    oracle.prepare(
        (ca.segment.end for __, __, ca, __ in joints),
        (cb.segment.start for __, __, __, cb in joints),
    )

    kept: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
    for key, value, ca, cb in joints:
        gap = oracle.route_distance_between_projections(
            ca.segment.segment_id,
            ca.projection.offset,
            cb.segment.segment_id,
            cb.projection.offset,
        )
        if gap <= bound:
            kept[key] = value
    return kept


def _spliced_references(
    archive: ArchiveBackend,
    anchor_i: _AnchorLookup,
    anchor_j: _AnchorLookup,
    network: RoadNetwork,
    qi: GPSPoint,
    qi1: GPSPoint,
    near_i: Dict[int, List[int]],
    near_j: Dict[int, List[int]],
    simple_ids: Set[int],
    budget: float,
    next_ref_id: int,
    cfg: ReferenceSearchConfig,
    engine,
) -> List[Reference]:
    """Definition 7: join tails leaving q_i with heads reaching q_{i+1}."""
    # Candidate halves: trajectories near exactly one endpoint, minus
    # the ones already accepted as simple references.
    tail_ids = [
        t
        for t in near_i
        if t not in simple_ids
        and _in_time_window(anchor_i, t, qi, cfg.time_of_day_window_s)
    ]
    head_ids = [t for t in near_j if t not in simple_ids]
    if not tail_ids or not head_ids:
        return []

    # Tail of T_a: observations from nn(q_i, T_a) onwards.
    tail_anchors: List[Tuple[int, int]] = []
    for tid in tail_ids:
        m, obs = anchor_i(tid)
        if obs.point.distance_to(qi.point) > cfg.phi:
            continue
        tail_anchors.append((tid, m))
    # Head of T_b: observations up to nn(q_{i+1}, T_b).
    head_anchors: List[Tuple[int, int]] = []
    for tid in head_ids:
        n, obs = anchor_j(tid)
        if obs.point.distance_to(qi1.point) > cfg.phi:
            continue
        head_anchors.append((tid, n))
    if not tail_anchors or not head_anchors:
        return []

    # Each value is the anchor index plus the span of *absolute* indices
    # [m, last] (tails) or [0, n] (heads).
    tails: Dict[int, Tuple[int, Tuple[Point, ...]]] = {
        tid: (m, _span(archive, tid, m, None)) for tid, m in tail_anchors
    }
    heads: Dict[int, Tuple[int, Tuple[Point, ...]]] = {
        tid: (n, _span(archive, tid, 0, n + 1)) for tid, n in head_anchors
    }

    # On-line spatial join: index all head observations in a grid, probe
    # with every tail observation, keep the best splice pair per
    # trajectory pair (minimum d(p_a, q_i) + d(p_b, q_{i+1}), as the
    # paper specifies).
    head_grid: GridIndex[Tuple[int, int]] = GridIndex(max(cfg.splice_epsilon, 1.0))
    for tid, (n, span) in heads.items():
        for idx in range(0, n + 1):
            head_grid.insert(span[idx], (tid, idx))

    best_pair: Dict[Tuple[int, int], Tuple[float, int, int]] = {}
    for a_tid, (m, span) in tails.items():
        for a_idx in range(m, m + len(span)):
            pa = span[a_idx - m]
            for b_tid, b_idx in head_grid.search_radius(pa, cfg.splice_epsilon):
                if b_tid == a_tid:
                    continue
                pb = heads[b_tid][1][b_idx]
                cost = pa.distance_to(qi.point) + pb.distance_to(qi1.point)
                key = (a_tid, b_tid)
                if key not in best_pair or cost < best_pair[key][0]:
                    best_pair[key] = (cost, a_idx, b_idx)

    if cfg.splice_network_gap and engine is not None:
        best_pair = _network_reachable_pairs(
            best_pair, tails, heads, network, engine, cfg
        )

    out: List[Reference] = []
    for (a_tid, b_tid), (__, a_idx, b_idx) in best_pair.items():
        m, a_span = tails[a_tid]
        n, b_span = heads[b_tid]
        points = tuple(list(a_span[: a_idx - m + 1]) + list(b_span[b_idx : n + 1]))
        if len(points) < 2:
            continue
        # Condition 1 of Definition 7: the splice must satisfy the
        # simple-reference conditions, notably the speed ellipse.
        if not within_speed_ellipse(points, qi.point, qi1.point, budget):
            continue
        out.append(
            Reference(
                ref_id=next_ref_id + len(out),
                source_ids=(a_tid, b_tid),
                points=points,
                spliced=True,
            )
        )
    return out


def assemble_references(
    archive: ArchiveBackend,
    network: RoadNetwork,
    qi: GPSPoint,
    qi1: GPSPoint,
    cfg: ReferenceSearchConfig,
    engine=None,
) -> List[Reference]:
    """All references w.r.t. ``<q_i, q_{i+1}>``, simple ones first.

    One ``trajectories_near_pair`` range query finds the candidates;
    each candidate's nearest observations to ``q_i`` and ``q_{i+1}`` are
    found among its hits, at most once, however many of the simple, tail
    and head screens it goes through.

    Raises:
        ValueError: If the pair is not in temporal order.
    """
    if qi1.t <= qi.t:
        raise ValueError("query points must be in temporal order")
    budget = (qi1.t - qi.t) * network.max_speed

    near_i, near_j = archive.trajectories_near_pair(qi.point, qi1.point, cfg.phi)
    anchor_i = _anchor_lookup(archive, qi.point, near_i, cfg.phi)
    anchor_j = _anchor_lookup(archive, qi1.point, near_j, cfg.phi)

    references: List[Reference] = []
    simple_ids: Set[int] = set()
    for tid in list(near_i.keys() & near_j.keys()):
        if not _in_time_window(anchor_i, tid, qi, cfg.time_of_day_window_s):
            continue
        # Condition 2 of Definition 6: both anchors inside the φ circles.
        m, obs_m = anchor_i(tid)
        if obs_m.point.distance_to(qi.point) > cfg.phi:
            continue
        n, obs_n = anchor_j(tid)
        if obs_n.point.distance_to(qi1.point) > cfg.phi:
            continue
        # Direction: the reference must travel from q_i towards q_{i+1}.
        if m > n:
            continue
        # Condition 3: the speed ellipse.
        points = _span(archive, tid, m, n + 1)
        if not within_speed_ellipse(points, qi.point, qi1.point, budget):
            continue
        references.append(
            Reference(
                ref_id=len(references),
                source_ids=(tid,),
                points=points,
                spliced=False,
            )
        )
        simple_ids.add(tid)

    if cfg.enable_splicing and len(references) < cfg.splice_when_fewer_than:
        references.extend(
            _spliced_references(
                archive,
                anchor_i,
                anchor_j,
                network,
                qi,
                qi1,
                near_i,
                near_j,
                simple_ids,
                budget,
                len(references),
                cfg,
                engine,
            )
        )

    if len(references) > cfg.max_references:
        references = closest_references(
            references, qi.point, qi1.point, cfg.max_references
        )
    return references


class ReferenceSearch:
    """Searches an archive for the references of a query-point pair.

    A thin coordinator around :func:`assemble_references` that holds the
    archive, the network and the search configuration.

    Args:
        engine: Optional :class:`~repro.roadnet.engine.RoutingEngine`.
            Only consulted when ``config.splice_network_gap`` is on, where
            its many-to-many transition oracle scores all splice joints of
            a pair in batched sweeps instead of per-joint routing calls.
    """

    def __init__(
        self,
        archive: ArchiveBackend,
        network: RoadNetwork,
        config: ReferenceSearchConfig = ReferenceSearchConfig(),
        engine=None,
    ) -> None:
        self._archive = archive
        self._network = network
        self._config = config
        self._engine = engine

    def search(self, qi: GPSPoint, qi1: GPSPoint) -> List[Reference]:
        """All references w.r.t. ``<q_i, q_{i+1}>``, simple ones first.

        Raises:
            ValueError: If the pair is not in temporal order.
        """
        return assemble_references(
            self._archive, self._network, qi, qi1, self._config, engine=self._engine
        )

    def reference_points(self, references: Sequence[Reference]) -> List[ReferencePoint]:
        """Flatten references into the tagged point pool ``P_i``."""
        pool: List[ReferencePoint] = []
        for ref in references:
            for seq, p in enumerate(ref.points):
                pool.append(ReferencePoint(p, ref.ref_id, seq))
        return pool
