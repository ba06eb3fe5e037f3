"""HRIS — the History-based Route Inference System facade (Fig. 2).

Wires the whole pipeline together.  Offline: a preprocessed archive
behind the :class:`~repro.core.archive.ArchiveBackend` protocol — one
in-process point grid, or spatial tiles served by a remote shard fleet;
both backends serve bit-identical query results.  Online, per query:

1. split the query into consecutive point pairs and run the
   reference-trajectory search (Sec. III-A) for each pair;
2. infer local routes per pair with TGI / NNI / the density hybrid
   (Sec. III-B), falling back to the network shortest path when a pair has
   no usable references (data sparseness never aborts a query);
3. score local routes (eq. 1), connect them with K-GRI (Sec. III-C) and
   return the top-K global routes.

:class:`HRISMatcher` adapts the top-1 route to the
:class:`~repro.mapmatching.base.MapMatcher` interface so HRIS plugs into
the same evaluation harness as the competitor matchers — the paper's
map-matching case study.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.archive import ArchiveBackend
from repro.core.hybrid import hybrid_infer, reference_density_per_km2
from repro.core.kgri import GlobalRoute, k_gri
from repro.core.nni import NearestNeighborInference, NNIConfig
from repro.core.reference import Reference, ReferenceSearch, ReferenceSearchConfig
from repro.core.scoring import (
    LocalRoute,
    compute_segment_support,
    score_local_routes,
)
from repro.core.traverse_graph import TGIConfig, TraverseGraphInference
from repro.geo.point import Point
from repro.mapmatching.base import MapMatcher, MatchResult
from repro.roadnet.engine import EngineConfig, EngineStats, RoutingEngine
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import LandmarkIndex
from repro.roadnet.route import Route
from repro.trajectory.model import Trajectory

__all__ = [
    "HRISConfig",
    "HRIS",
    "HRISMatcher",
    "NoLocalRouteError",
    "PairDetail",
    "InferenceDetail",
]


class NoLocalRouteError(RuntimeError):
    """A query pair has no local route at all: no inferred candidate, and
    the road network does not connect the points' nearest segments.

    A property of the query against this network, not a fault of the
    system — the gateway answers it with 422.
    """


@dataclass(frozen=True, slots=True)
class HRISConfig:
    """All tunables of the system — Table II of the paper.

    Attributes:
        phi: Reference search radius φ (500 m).
        tau: Hybrid density threshold τ (200 points/km²).
        lam: λ-neighborhood radius in TGI (4).
        k1: K of the K-shortest-path search in TGI (5).
        k2: k of the constrained kNN in NNI (4).
        k3: K of the global route inference (5).
        alpha: α backward tolerance in NNI (500 m).
        beta: β detour tolerance in NNI (1.5).
        candidate_radius: ε of candidate-edge searches (50 m).
        splice_epsilon: Splice gap ε of Definition 7 (300 m).
        enable_splicing: Search spliced references at all.
        splice_when_fewer_than: Splice only when fewer simple references
            than this were found (splicing targets data-sparse areas).
        local_method: ``"hybrid"`` (default), ``"tgi"`` or ``"nni"``.
        entropy_floor: Popularity entropy floor (see scoring module).
        normalize_entropy: Normalise the popularity entropy factor to
            [0, 1] (removes the raw formula's length bias; see scoring).
        max_local_routes: Cap on local routes per pair.
        max_references: Cap on references per pair.
        use_reduction: TGI graph-reduction toggle.
        use_augmentation: TGI graph-augmentation toggle.
        share_substructures: NNI transit-graph sharing toggle.
        include_shortest_candidate: Always add the endpoint shortest path
            as one candidate local route per pair; it wins only when the
            references actually support it, and guarantees every stage has
            a sane geometric baseline even when the inference goes astray.
        max_detour_ratio: Local routes longer than this multiple of the
            endpoint shortest-path distance are discarded before scoring
            (equation (1) has no notion of length, so grossly detouring
            candidates must never reach it).
        time_of_day_window_s: Optional time-of-day reference filter (the
            paper's "incorporate the time" future work); None disables it.
        n_landmarks: Landmarks of the ALT shortest-path index built at HRIS
            construction time (0 disables ALT: A* falls back to the plain
            euclidean heuristic).  Results are identical either way.
        route_cache_size: Entries of the shared segment-pair route cache
            (0 disables).
        candidate_cache_size: Entries of the candidate-edge cache.
        support_cache_size: Entries of the reference-support cache.
        oracle_cache_size: Source rows held by each transition oracle
            (:class:`~repro.roadnet.table_oracle.DistanceTableOracle`).
    """

    phi: float = 500.0
    tau: float = 200.0
    lam: int = 4
    k1: int = 5
    k2: int = 4
    k3: int = 5
    alpha: float = 500.0
    beta: float = 1.5
    candidate_radius: float = 50.0
    splice_epsilon: float = 300.0
    enable_splicing: bool = True
    splice_when_fewer_than: int = 5
    local_method: str = "hybrid"
    entropy_floor: float = 0.05
    normalize_entropy: bool = True
    max_local_routes: int = 10
    max_references: int = 60
    use_reduction: bool = True
    use_augmentation: bool = True
    share_substructures: bool = True
    include_shortest_candidate: bool = True
    max_detour_ratio: float = 1.5
    time_of_day_window_s: Optional[float] = None
    n_landmarks: int = 8
    route_cache_size: int = 65_536
    candidate_cache_size: int = 65_536
    support_cache_size: int = 16_384
    oracle_cache_size: int = 2_048

    def __post_init__(self) -> None:
        if self.local_method not in ("hybrid", "tgi", "nni"):
            raise ValueError(f"unknown local_method {self.local_method!r}")
        if self.n_landmarks < 0:
            raise ValueError("n_landmarks must be non-negative")
        # NaN passes every ordering check unnoticed (each comparison is
        # false): a NaN α or β would switch NNI's filters off and a NaN τ
        # would send every pair to NNI, so the checks are negated.
        if not self.alpha >= 0:
            raise ValueError("alpha must be non-negative")
        if not self.beta >= 1.0:
            raise ValueError("beta must be at least 1")
        if math.isnan(self.tau):
            raise ValueError("tau must not be NaN")

    def tgi_config(self) -> TGIConfig:
        return TGIConfig(
            lam=self.lam,
            k_shortest=self.k1,
            candidate_radius=self.candidate_radius,
            use_augmentation=self.use_augmentation,
            use_reduction=self.use_reduction,
            max_routes=self.max_local_routes,
            max_detour_ratio=self.max_detour_ratio,
        )

    def nni_config(self) -> NNIConfig:
        return NNIConfig(
            k=self.k2,
            alpha=self.alpha,
            beta=self.beta,
            share_substructures=self.share_substructures,
            candidate_radius=self.candidate_radius,
            max_routes=self.max_local_routes,
            max_detour_ratio=self.max_detour_ratio,
        )

    def reference_config(self) -> ReferenceSearchConfig:
        return ReferenceSearchConfig(
            phi=self.phi,
            splice_epsilon=self.splice_epsilon,
            enable_splicing=self.enable_splicing,
            splice_when_fewer_than=self.splice_when_fewer_than,
            max_references=self.max_references,
            time_of_day_window_s=self.time_of_day_window_s,
        )

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            n_landmarks=self.n_landmarks,
            route_cache_size=self.route_cache_size,
            candidate_cache_size=self.candidate_cache_size,
            support_cache_size=self.support_cache_size,
            oracle_sources=self.oracle_cache_size,
        )


@dataclass(slots=True)
class PairDetail:
    """Diagnostics for one query-point pair."""

    n_references: int
    n_spliced: int
    density: float
    method: str
    n_local_routes: int
    fallback: bool


@dataclass(slots=True)
class InferenceDetail:
    """Diagnostics for a full query inference.

    ``engine`` holds the routing-engine counter deltas accumulated during
    this query — searches run, nodes settled, and per-cache hits, misses
    and evictions (see :class:`~repro.roadnet.engine.EngineStats`).
    """

    pairs: List[PairDetail] = field(default_factory=list)
    reference_time_s: float = 0.0
    local_time_s: float = 0.0
    global_time_s: float = 0.0
    engine: Optional[EngineStats] = None

    @property
    def total_time_s(self) -> float:
        return self.reference_time_s + self.local_time_s + self.global_time_s


class HRIS:
    """History-based Route Inference System.

    Args:
        network: The road network.
        archive: Any :class:`~repro.core.archive.ArchiveBackend` — the
            in-process :class:`~repro.core.archive.InMemoryArchive` or the
            shard-served :class:`~repro.core.remote.RemoteShardedArchive`;
            inference results are identical whichever backend serves the
            reference range queries.
        config: System tunables (Table II).
        landmark_index: Optional prebuilt/persisted ALT landmark index;
            when given (and ``config.n_landmarks > 0``) the engine reuses
            it instead of rebuilding the tables at construction time.
    """

    def __init__(
        self,
        network: RoadNetwork,
        archive: ArchiveBackend,
        config: HRISConfig = HRISConfig(),
        landmark_index: Optional["LandmarkIndex"] = None,
    ) -> None:
        self._network = network
        self._archive = archive
        self._config = config
        self._engine = RoutingEngine(
            network, config.engine_config(), landmarks=landmark_index
        )
        self._reference_search = ReferenceSearch(
            archive, network, config.reference_config()
        )
        # One TGI and one NNI serve every local_method: the hybrid dispatch
        # runs these same instances.
        self._tgi = TraverseGraphInference(
            network, config.tgi_config(), engine=self._engine
        )
        self._nni = NearestNeighborInference(
            network, config.nni_config(), engine=self._engine
        )

    @property
    def config(self) -> HRISConfig:
        return self._config

    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def archive(self) -> ArchiveBackend:
        """The historical archive backend this instance serves from."""
        return self._archive

    @property
    def engine(self) -> RoutingEngine:
        """The routing engine shared by every inference component."""
        return self._engine

    def worker_clone(self) -> "HRIS":
        """A sibling instance for another serving thread.

        The clone shares this instance's read-only state — network,
        archive backend and ALT landmark tables — but owns fresh caches
        and oracle state: exactly the pieces mutated per query, none of
        which are thread-safe.  Results are bit-identical to this
        instance's (caches change when work happens, never what is
        computed); only cache warm-up is private.

        The gateway (:mod:`repro.serve`) builds one clone per worker so
        concurrent requests never share a mutable engine.
        """
        return HRIS(
            self._network,
            self._archive,
            self._config,
            landmark_index=self._engine.landmarks,
        )

    def infer_routes(
        self, query: Trajectory, k: Optional[int] = None
    ) -> List[GlobalRoute]:
        """The top-K possible routes of a low-sampling-rate query.

        Args:
            query: The query trajectory (at least two points).
            k: Number of global routes; defaults to the configured k3.

        Raises:
            ValueError: If the query has fewer than two points.
            NoLocalRouteError: If some pair of consecutive query points has
                no local route (the network does not connect them).
        """
        routes, __ = self.infer_routes_with_details(query, k)
        return routes

    def infer_routes_with_details(
        self, query: Trajectory, k: Optional[int] = None
    ) -> Tuple[List[GlobalRoute], InferenceDetail]:
        """As :meth:`infer_routes`, also returning per-phase diagnostics."""
        if len(query) < 2:
            raise ValueError("a query needs at least two points")
        k = k if k is not None else self._config.k3
        detail = InferenceDetail()
        engine_before = self._engine.stats()

        stages: List[List[LocalRoute]] = []
        for i in range(len(query) - 1):
            qi, qi1 = query[i], query[i + 1]

            t0 = time.perf_counter()
            references = self._reference_search.search(qi, qi1)
            detail.reference_time_s += time.perf_counter() - t0

            t0 = time.perf_counter()
            stage, pair_detail = self._local_stage(qi.point, qi1.point, references)
            detail.local_time_s += time.perf_counter() - t0
            detail.pairs.append(pair_detail)
            stages.append(stage)

        t0 = time.perf_counter()
        result = k_gri(self._engine, stages, k)
        detail.global_time_s += time.perf_counter() - t0
        detail.engine = self._engine.stats().delta(engine_before)
        return result, detail

    def infer_routes_batch(
        self,
        trajectories: Iterable[Trajectory],
        k: Optional[int] = None,
        workers: int = 1,
        chunksize: Optional[int] = None,
        use_processes: Optional[bool] = None,
    ) -> List[List[GlobalRoute]]:
        """Infer routes for many queries, optionally across worker processes.

        The result is ordered like the input and is element-for-element
        identical to calling :meth:`infer_routes` sequentially — workers
        only change the schedule, never the computation.

        Parallelism uses the ``fork`` start method so every worker shares
        this instance's read-only network, archive and landmark tables
        without pickling; per-worker caches warm independently.  When
        ``workers <= 1``, ``fork`` is unavailable (non-POSIX), or the batch
        is smaller than two queries, inference runs sequentially in-process
        — the single code path the equivalence test pins down.

        Args:
            trajectories: The query trajectories.
            k: Global routes per query (defaults to the configured k3).
            workers: Worker processes to fork.
            chunksize: Queries dispatched per worker task; defaults to an
                even split across workers.
            use_processes: ``None`` (default) forks only when the machine
                has more than one CPU — on a single core a pool costs
                fork/copy-on-write overhead and splits the shared caches
                for zero parallelism, so sequential is strictly faster.
                ``True`` forces the pool regardless (the equivalence test
                exercises the fork path this way); ``False`` forces
                sequential.
        """
        queries = list(trajectories)
        if use_processes is None:
            use_processes = (multiprocessing.cpu_count() or 1) > 1
        if not use_processes or workers <= 1 or len(queries) < 2:
            return [self.infer_routes(q, k) for q in queries]
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            return [self.infer_routes(q, k) for q in queries]

        global _BATCH_STATE
        if chunksize is None:
            chunksize = max(1, math.ceil(len(queries) / workers))
        # Remote archives drop their pooled sockets before forking, so
        # each worker reconnects instead of sharing a stream.
        prepare = getattr(self._archive, "prepare_for_fork", None)
        if prepare is not None:
            prepare()
        # Transition oracles: seal resumable sweep heaps so forked workers
        # share the warm distance rows copy-on-write instead of re-sweeping.
        self._engine.prepare_for_fork()
        _BATCH_STATE = (self, k, queries)
        try:
            with ctx.Pool(processes=workers) as pool:
                return pool.map(_batch_infer_one, range(len(queries)), chunksize)
        finally:
            _BATCH_STATE = None

    # -------------------------------------------------------------- internal

    def _local_stage(
        self, qi: Point, qi1: Point, references: Sequence[Reference]
    ) -> Tuple[List[LocalRoute], PairDetail]:
        cfg = self._config
        method = cfg.local_method
        density = reference_density_per_km2(references)
        engine, radius = self._engine, cfg.candidate_radius
        # The references' traversed-segment sets, asked of the engine once
        # per pair, at the first stage that needs them: TGI, else scoring.
        traversed = functools.cache(
            lambda: [engine.traversed_segments(ref, radius) for ref in references]
        )
        routes: List[Route] = []
        if references:
            if method == "tgi":
                routes, __ = self._tgi.infer(qi, qi1, references, traversed())
            elif method == "nni":
                routes, __ = self._nni.infer(qi, qi1, references)
            else:
                routes, method = hybrid_infer(
                    self._tgi,
                    self._nni,
                    cfg.tau,
                    density,
                    qi,
                    qi1,
                    references,
                    traversed,
                )

        sp = self._engine.endpoint_route(qi, qi1)
        if sp is not None:
            # Hard guard: equation (1) cannot compare routes of wildly
            # different lengths, so candidates grossly longer than the
            # direct connection never reach the scoring stage.
            bound = sp.length(self._network) * cfg.max_detour_ratio
            routes = [r for r in routes if r.length(self._network) <= bound]
        fallback = not routes
        if sp is not None and (fallback or cfg.include_shortest_candidate):
            if all(sp.segment_ids != r.segment_ids for r in routes):
                routes = list(routes) + [sp]
        if not routes:
            raise NoLocalRouteError(
                "no local route between query points — the road network is "
                "not connected around the query"
            )

        support = compute_segment_support(engine, references, radius, traversed())
        stage = score_local_routes(
            routes, support, cfg.entropy_floor, cfg.normalize_entropy
        )
        pair_detail = PairDetail(
            n_references=len(references),
            n_spliced=sum(1 for r in references if r.spliced),
            density=density,
            method=method if not fallback else "fallback",
            n_local_routes=len(stage),
            fallback=fallback,
        )
        return stage, pair_detail


#: Fork-inherited batch state: (hris, k, queries).  Set by
#: :meth:`HRIS.infer_routes_batch` immediately before the pool forks, so
#: workers address the shared read-only HRIS without pickling it.
_BATCH_STATE: Optional[Tuple["HRIS", Optional[int], List[Trajectory]]] = None


def _batch_infer_one(index: int) -> List[GlobalRoute]:
    assert _BATCH_STATE is not None, "batch worker started without state"
    hris, k, queries = _BATCH_STATE
    return hris.infer_routes(queries[index], k)


class HRISMatcher(MapMatcher):
    """Adapter: HRIS top-1 global route as a map matcher.

    This is exactly how the paper evaluates HRIS ("for fairness, we use the
    top-1 global route to compute the accuracy of our approach").
    """

    def __init__(self, hris: HRIS) -> None:
        self._hris = hris

    def match(self, trajectory: Trajectory) -> MatchResult:
        routes = self._hris.infer_routes(trajectory, k=1)
        route = routes[0].route if routes else Route.empty()
        return MatchResult(route=route, matched=tuple([None] * len(trajectory)))
