"""Temporally regularized spectral clustering of time-varying graphs.

Clusters the nodes of a registered graph sequence by solving a sphere- and
slab-constrained cut minimization with an l1 penalty on frame-to-frame label
vector changes, via a primal-dual splitting iteration.
"""

from .clustering import (
    EmbeddingSequence,
    LabelSequence,
    align_labels,
    align_sequence,
    kmeans,
    static_sc,
    tv_cluster_multi,
)
from .generators import SbmTvParams, sbm_static, sbm_tv_sequence
from .graphs import (
    TVGraphSequence,
    WeightedGraph,
    build_laplacian,
    max_eigenvalue,
    quadratic_form,
    smallest_eigenvectors,
    temporal_diff,
    temporal_diff_adjoint,
)
from .metrics import (
    AccuracyReport,
    accuracy_report,
    eigengap_profile,
    mismatch_count,
    pair_accuracy,
    ratiocut,
)
from .pointcloud import PointFrameSequence, downsample, knn_graph, load_frames
from .prox import prox_conjugate, prox_slab, prox_sphere, soft_threshold
from .solver import (
    SolveResult,
    SolverConfig,
    SolverError,
    StepSizeError,
    pds_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "EmbeddingSequence",
    "LabelSequence",
    "PointFrameSequence",
    "SbmTvParams",
    "SolveResult",
    "SolverConfig",
    "SolverError",
    "StepSizeError",
    "TVGraphSequence",
    "WeightedGraph",
    "accuracy_report",
    "align_labels",
    "align_sequence",
    "build_laplacian",
    "downsample",
    "eigengap_profile",
    "kmeans",
    "knn_graph",
    "load_frames",
    "max_eigenvalue",
    "mismatch_count",
    "pair_accuracy",
    "pds_solve",
    "prox_conjugate",
    "prox_slab",
    "prox_sphere",
    "quadratic_form",
    "ratiocut",
    "sbm_static",
    "sbm_tv_sequence",
    "smallest_eigenvectors",
    "soft_threshold",
    "static_sc",
    "temporal_diff",
    "temporal_diff_adjoint",
    "tv_cluster_multi",
]
