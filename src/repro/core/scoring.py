"""Route scoring (Sec. III-C.1): popularity, transition confidence, score.

Implements the paper's two scoring functions:

* equation (1), *local route popularity*
  ``f(R) = |∪_{r∈R} C_i(r)| · Σ_{r∈R} −x(r)·log x(r)`` — the number of
  distinct supporting references scaled by the entropy of their
  distribution over the route's segments (uniform traffic is trusted,
  bursty traffic is discounted), and
* equation (2), *transition confidence*
  ``g(R_a, R_b) = exp(J(C(R_a), C(R_b)) − 1)`` with ``J`` the Jaccard
  overlap of the two supporting-reference sets — 1 when identical,
  ``1/e`` when disjoint.

A note on the entropy term: taken literally, a single-segment local route
has zero entropy and therefore zero popularity, which annihilates every
global score it participates in.  The ``entropy_floor`` knob (0 = strictly
faithful) lower-bounds the entropy factor so degenerate local routes stay
comparable; the HRIS system config enables a small floor by default
(documented in DESIGN.md §5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.reference import Reference
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.route import Route

__all__ = [
    "LocalRoute",
    "compute_segment_support",
    "route_support",
    "popularity",
    "transition_confidence",
    "score_local_routes",
]

#: Numerical floor for logarithms of (near-)zero scores.
LOG_EPSILON = 1e-12


@dataclass(frozen=True, slots=True)
class LocalRoute:
    """A scored local route between one query-point pair.

    Attributes:
        route: The physical route.
        popularity: ``f(R)`` of equation (1).
        support: Ids of the references that travel on the route
            (``C_i(R)``), the input to the transition confidence.
    """

    route: Route
    popularity: float
    support: FrozenSet[int]

    @property
    def log_popularity(self) -> float:
        return math.log(max(self.popularity, LOG_EPSILON))


def compute_segment_support(
    engine: RoutingEngine,
    references: Sequence[Reference],
    candidate_radius: float,
    traversed: Optional[Sequence[FrozenSet[int]]] = None,
) -> Dict[int, Set[int]]:
    """``C_i(r)`` for every segment: which references travel on it.

    A reference travels on a segment when the segment is a direction-
    consistent candidate edge (Definition 5) of at least one of its points —
    the "traverse edge" criterion of Definition 9, with the archive
    map-matching of the preprocessing stage approximated by a heading
    filter (see :func:`repro.core.reference.reference_traversed_segments`).
    The sets come from the ``engine``'s support cache, unless the caller
    passes them as ``traversed`` (aligned with ``references``), having
    asked the engine once for the traverse-graph stage of the same pair.
    """
    if traversed is None:
        traversed = [
            engine.traversed_segments(ref, candidate_radius) for ref in references
        ]
    support: Dict[int, Set[int]] = {}
    for ref, segment_ids in zip(references, traversed):
        for sid in segment_ids:
            support.setdefault(sid, set()).add(ref.ref_id)
    return support


def route_support(route: Route, segment_support: Dict[int, Set[int]]) -> FrozenSet[int]:
    """``C_i(R) = ∪_{r∈R} C_i(r)``: references supporting any route segment."""
    refs: Set[int] = set()
    for sid in route.segment_ids:
        refs |= segment_support.get(sid, set())
    return frozenset(refs)


def popularity(
    route: Route,
    segment_support: Dict[int, Set[int]],
    entropy_floor: float = 0.0,
    normalize: bool = True,
) -> float:
    """Equation (1): supporting-reference count times distribution entropy.

    With ``normalize=True`` (default) the entropy factor is divided by its
    maximum ``ln(n_supported_segments)`` so it lies in [0, 1].  The raw
    formula grows with route length for any uniformly supported route
    (entropy of a uniform distribution over n segments is ln n), which
    systematically rewards padding a route with extra supported segments;
    normalisation removes that bias while preserving exactly the property
    equation (1) was designed for — routes with *stable* traffic beat
    routes whose support is bursty (the paper's Fig. 6).  Set
    ``normalize=False`` for the strictly literal formula.

    Args:
        route: The local route to score.
        segment_support: Output of :func:`compute_segment_support`.
        entropy_floor: Lower bound applied to the entropy factor whenever
            the route has any support (0 = strictly the paper's formula).
        normalize: Normalise the entropy factor to [0, 1].

    Raises:
        ValueError: If ``entropy_floor`` is negative.
    """
    if entropy_floor < 0:
        raise ValueError("entropy_floor must be non-negative")
    counts = [
        len(segment_support.get(sid, ())) for sid in route.segment_ids
    ]
    total = sum(counts)
    union = route_support(route, segment_support)
    if not union or total == 0:
        return 0.0
    entropy = 0.0
    for c in counts:
        if c == 0:
            continue  # zero-support segments contribute no entropy ...
        x = c / total
        entropy -= x * math.log(x)
    if normalize:
        # ... but they do count against the maximum: the sum in eq. (1)
        # ranges over every segment of R, so a route padded with untravelled
        # segments can never look uniformly popular.
        n_segments = len(counts)
        if n_segments <= 1:
            entropy = 1.0  # a single-segment route is trivially uniform
        else:
            entropy /= math.log(n_segments)
    return len(union) * max(entropy, entropy_floor)


def transition_confidence(support_a: FrozenSet[int], support_b: FrozenSet[int]) -> float:
    """Equation (2): ``exp(Jaccard − 1)``, in ``[1/e, 1]``.

    Two local routes with no supporting references at all are treated as
    disjoint (confidence ``1/e``), matching the formula's 0/0 → 0 reading.
    """
    union = support_a | support_b
    if not union:
        return math.exp(-1.0)
    jaccard = len(support_a & support_b) / len(union)
    return math.exp(jaccard - 1.0)


def score_local_routes(
    routes: Sequence[Route],
    segment_support: Dict[int, Set[int]],
    entropy_floor: float = 0.0,
    normalize: bool = True,
) -> List[LocalRoute]:
    """Score raw local routes, most popular first."""
    scored = [
        LocalRoute(
            route=r,
            popularity=popularity(r, segment_support, entropy_floor, normalize),
            support=route_support(r, segment_support),
        )
        for r in routes
    ]
    scored.sort(key=lambda lr: lr.popularity, reverse=True)
    return scored
