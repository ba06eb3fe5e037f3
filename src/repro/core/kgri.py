"""Top-K global route inference — K-GRI (Sec. III-C.2, Algorithm 3).

A global route concatenates one local route per query-point pair; its score
is the product of local popularities and pairwise transition confidences:

    s(R) = Π f(R_i) · Π g(R_i, R_{i+1})

K-GRI is the dynamic program over the matrix ``M[i][j]`` — the K best
partial global routes ending with local route ``R_i^j`` — justified by the
downward-closure property of the score.  Scores are accumulated in log
space so long queries neither underflow nor overflow; the argmax order is
unchanged.

The brute-force enumerator the paper benchmarks against (Fig. 14b) is also
provided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.scoring import LOG_EPSILON, LocalRoute, transition_confidence
from repro.mapmatching.base import stitch_route
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.route import Route

__all__ = ["GlobalRoute", "k_gri", "brute_force_global_routes"]


@dataclass(frozen=True, slots=True)
class GlobalRoute:
    """A scored global route.

    Attributes:
        log_score: ``log s(R)`` (the ranking key).
        local_indices: Index of the chosen local route in each stage.
        route: The stitched physical route.
    """

    log_score: float
    local_indices: Tuple[int, ...]
    route: Route

    @property
    def score(self) -> float:
        """``s(R)`` itself (may underflow to 0 for very long queries)."""
        return math.exp(self.log_score)


def _log(x: float) -> float:
    return math.log(max(x, LOG_EPSILON))


def _validate_stages(stages: Sequence[Sequence[LocalRoute]]) -> None:
    if not stages:
        raise ValueError("at least one stage of local routes is required")
    for i, stage in enumerate(stages):
        if not stage:
            raise ValueError(f"stage {i} has no local routes")


def _assemble(
    engine: RoutingEngine,
    stages: Sequence[Sequence[LocalRoute]],
    indices: Tuple[int, ...],
) -> Route:
    """Concatenate the chosen local routes, bridging any gaps (the paper's
    shortest-path bridge for mismatched junction candidate edges)."""
    segments: List[int] = []
    for stage_idx, route_idx in enumerate(indices):
        segments.extend(stages[stage_idx][route_idx].route.segment_ids)
    return stitch_route(engine, segments)


def k_gri(
    engine: RoutingEngine,
    stages: Sequence[Sequence[LocalRoute]],
    k: int,
) -> List[GlobalRoute]:
    """Algorithm 3: the top-``k`` global routes by dynamic programming.

    Args:
        engine: The :class:`~repro.roadnet.engine.RoutingEngine`, the
            only path to the road network: route lengths and the bridges
            of the final assembly.
        stages: ``(R_1, ..., R_n)`` — the scored local routes per pair.
        k: Number of global routes to return (the paper's k3).

    Raises:
        ValueError: If ``k < 1`` or any stage is empty.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _validate_stages(stages)

    network = engine.network
    lengths = [
        [lr.route.length(network) for lr in stage] for stage in stages
    ]

    def rank_key(item: Tuple[float, float, Tuple[int, ...]]):
        # Highest score first; among score ties, the shortest physical
        # route wins (zero-support padding must not be rewarded).
        return (-item[0], item[1])

    # M[j]: the K best (log_score, total_length, indices) partials ending at
    # local route j of the current stage.
    current: List[List[Tuple[float, float, Tuple[int, ...]]]] = [
        [(_log(lr.popularity), lengths[0][j], (j,))]
        for j, lr in enumerate(stages[0])
    ]

    for i in range(1, len(stages)):
        prev_stage = stages[i - 1]
        stage = stages[i]
        nxt: List[List[Tuple[float, float, Tuple[int, ...]]]] = []
        for j, lr in enumerate(stage):
            log_pop = _log(lr.popularity)
            merged: List[Tuple[float, float, Tuple[int, ...]]] = []
            for pk, partials in enumerate(current):
                if not partials:
                    continue
                log_g = _log(
                    transition_confidence(prev_stage[pk].support, lr.support)
                )
                for log_score, length, indices in partials:
                    merged.append(
                        (
                            log_score + log_g + log_pop,
                            length + lengths[i][j],
                            indices + (j,),
                        )
                    )
            merged.sort(key=rank_key)
            nxt.append(merged[:k])
        current = nxt

    final: List[Tuple[float, float, Tuple[int, ...]]] = [
        item for partials in current for item in partials
    ]
    final.sort(key=rank_key)
    return [
        GlobalRoute(
            log_score=log_score,
            local_indices=indices,
            route=_assemble(engine, stages, indices),
        )
        for log_score, __, indices in final[:k]
    ]


def brute_force_global_routes(
    engine: RoutingEngine,
    stages: Sequence[Sequence[LocalRoute]],
    k: int,
    max_combinations: int = 2_000_000,
) -> List[GlobalRoute]:
    """Enumerate every combination of local routes and keep the top-``k``.

    The exponential baseline of Fig. 14b.  Refuses to enumerate more than
    ``max_combinations`` combinations.

    Raises:
        ValueError: If the combination count exceeds the cap.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _validate_stages(stages)
    total = 1
    for stage in stages:
        total *= len(stage)
        if total > max_combinations:
            raise ValueError(
                f"brute force would enumerate more than {max_combinations} "
                "combinations"
            )

    network = engine.network
    lengths = [
        [lr.route.length(network) for lr in stage] for stage in stages
    ]
    scored: List[Tuple[float, float, Tuple[int, ...]]] = []
    for combo in itertools.product(*(range(len(stage)) for stage in stages)):
        log_score = _log(stages[0][combo[0]].popularity)
        length = lengths[0][combo[0]]
        for i in range(1, len(stages)):
            a = stages[i - 1][combo[i - 1]]
            b = stages[i][combo[i]]
            log_score += _log(transition_confidence(a.support, b.support))
            log_score += _log(b.popularity)
            length += lengths[i][combo[i]]
        scored.append((log_score, length, combo))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [
        GlobalRoute(
            log_score=log_score,
            local_indices=indices,
            route=_assemble(engine, stages, indices),
        )
        for log_score, __, indices in scored[:k]
    ]
