"""Hybrid local route inference (Sec. III-B.3).

The hybrid estimates the reference-point density ρ (points per km² of
their minimum bounding box) and dispatches to TGI or NNI around the
threshold τ (Table II: 200 points/km²).

The paper is internally inconsistent about the dispatch direction: the
prose of Sec. III-B.3 says "if the density is lower than τ, the TGI will
be selected; otherwise the NNI", while its Fig. 10 analysis says the
opposite ("NNI has better performance when the density is relatively low
… TGI outperforms NNI when ρ > 200/km²").  We resolve the contradiction
empirically: on this implementation's own Fig. 10 reproduction
(benchmarks/test_fig10_density.py), TGI — whose traverse graph is
support-weighted and augmentation-bridged — is the stronger method at low
densities, exactly as the prose states.  The dispatch therefore follows
the prose:

* ρ < τ  → TGI,
* ρ >= τ → NNI,

and either method serves as the fallback when the other returns nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.nni import NearestNeighborInference, NNIConfig
from repro.core.reference import Reference
from repro.core.traverse_graph import TGIConfig, TraverseGraphInference
from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.roadnet.engine import RoutingEngine
from repro.roadnet.network import RoadNetwork
from repro.roadnet.route import Route

__all__ = [
    "HybridConfig",
    "HybridInference",
    "hybrid_infer",
    "reference_density_per_km2",
]


def reference_density_per_km2(references: Sequence[Reference]) -> float:
    """ρ: reference points per km² of their minimum bounding box.

    Tightly clustered points (degenerate zero-area box) count as infinitely
    dense; no points at all count as zero.
    """
    points: List[Point] = [p for ref in references for p in ref.points]
    if not points:
        return 0.0
    box = BBox.from_points(points)
    if box.area == 0.0:
        return math.inf
    return len(points) / (box.area / 1_000_000.0)


@dataclass(frozen=True, slots=True)
class HybridConfig:
    """Hybrid dispatch parameters.

    Attributes:
        tau: Density threshold τ in points/km² (Table II: 200).
        tgi: TGI parameters.
        nni: NNI parameters.
    """

    tau: float = 200.0
    tgi: TGIConfig = TGIConfig()
    nni: NNIConfig = NNIConfig()

    def __post_init__(self) -> None:
        # `density < nan` is false, so a NaN τ would send every pair to NNI.
        if math.isnan(self.tau):
            raise ValueError("tau must not be NaN")


def hybrid_infer(
    tgi: TraverseGraphInference,
    nni: NearestNeighborInference,
    tau: float,
    density: float,
    qi: Point,
    qi1: Point,
    references: Sequence[Reference],
    traversed: Optional[Callable[[], Sequence[FrozenSet[int]]]] = None,
) -> Tuple[List[Route], str]:
    """Infer local routes with whichever of ``tgi`` / ``nni`` ρ selects.

    Args:
        density: ρ of ``references``
            (:func:`reference_density_per_km2`), computed once by the caller.
        traversed: Optional source of the references' traversed-segment
            sets for TGI (see :meth:`TraverseGraphInference.infer`), called
            only when TGI runs; None lets TGI ask the engine.

    Returns:
        ``(routes, method)`` where method is ``"tgi"`` or ``"nni"``.
    """

    def run_tgi() -> List[Route]:
        sets = traversed() if traversed is not None else None
        return tgi.infer(qi, qi1, references, sets)[0]

    if density < tau:
        routes = run_tgi()
        if routes:
            return routes, "tgi"
        routes, __ = nni.infer(qi, qi1, references)
        return routes, "nni"
    routes, __ = nni.infer(qi, qi1, references)
    if routes:
        return routes, "nni"
    return run_tgi(), "tgi"


class HybridInference:
    """Density-dispatched local route inference.

    Args:
        engine: The :class:`~repro.roadnet.engine.RoutingEngine` TGI and NNI
            share, their only path to the road network.  None builds one
            private engine over ``network`` for both; results are
            identical either way.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: HybridConfig = HybridConfig(),
        engine=None,
    ) -> None:
        self._config = config
        if engine is None:
            engine = RoutingEngine(network)
        self._tgi = TraverseGraphInference(network, config.tgi, engine=engine)
        self._nni = NearestNeighborInference(network, config.nni, engine=engine)

    def infer(
        self, qi: Point, qi1: Point, references: Sequence[Reference]
    ) -> Tuple[List[Route], str]:
        """Infer local routes, returning them and the method used.

        Returns:
            ``(routes, method)`` where method is ``"tgi"`` or ``"nni"``.
        """
        density = reference_density_per_km2(references)
        return hybrid_infer(
            self._tgi, self._nni, self._config.tau, density, qi, qi1, references
        )
