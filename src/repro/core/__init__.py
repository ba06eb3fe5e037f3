"""HRIS core: the paper's primary contribution.

Public surface: build a :class:`TrajectoryArchive` from history, construct
:class:`HRIS` over it and a road network, call
:meth:`HRIS.infer_routes` on a low-sampling-rate query.
"""

from repro.core.archive import (
    ArchiveBackend,
    ArchivePoint,
    InMemoryArchive,
    TrajectoryArchive,
    convert_archive,
    load_archive,
    make_archive,
    save_archive,
)
from repro.core.freespace import (
    FreeGlobalRoute,
    FreeRoute,
    FreeSpaceConfig,
    FreeSpaceInference,
    discrete_frechet,
)
from repro.core.hybrid import HybridConfig, HybridInference, reference_density_per_km2
from repro.core.kgri import GlobalRoute, brute_force_global_routes, k_gri
from repro.core.nni import NearestNeighborInference, NNIConfig, NNIStats
from repro.core.remote import (
    ArchiveShardServer,
    RemoteArchiveError,
    RemoteShardedArchive,
    ShardProtocolError,
    ShardTimeoutError,
    ShardUnavailableError,
)
from repro.core.reference import (
    Reference,
    ReferencePoint,
    ReferenceSearch,
    ReferenceSearchConfig,
)
from repro.core.scoring import (
    LocalRoute,
    compute_segment_support,
    popularity,
    route_support,
    score_local_routes,
    transition_confidence,
)
from repro.core.system import HRIS, HRISConfig, HRISMatcher, InferenceDetail, PairDetail
from repro.core.traverse_graph import TGIConfig, TGIStats, TraverseGraphInference

__all__ = [
    "HRIS",
    "ArchiveBackend",
    "ArchivePoint",
    "InMemoryArchive",
    "ArchiveShardServer",
    "RemoteArchiveError",
    "RemoteShardedArchive",
    "ShardProtocolError",
    "ShardTimeoutError",
    "ShardUnavailableError",
    "convert_archive",
    "load_archive",
    "make_archive",
    "save_archive",
    "FreeGlobalRoute",
    "FreeRoute",
    "FreeSpaceConfig",
    "FreeSpaceInference",
    "discrete_frechet",
    "GlobalRoute",
    "HRISConfig",
    "HRISMatcher",
    "HybridConfig",
    "HybridInference",
    "InferenceDetail",
    "LocalRoute",
    "NNIConfig",
    "NNIStats",
    "NearestNeighborInference",
    "PairDetail",
    "Reference",
    "ReferencePoint",
    "ReferenceSearch",
    "ReferenceSearchConfig",
    "TGIConfig",
    "TGIStats",
    "TrajectoryArchive",
    "TraverseGraphInference",
    "brute_force_global_routes",
    "compute_segment_support",
    "k_gri",
    "popularity",
    "reference_density_per_km2",
    "route_support",
    "score_local_routes",
    "transition_confidence",
]
