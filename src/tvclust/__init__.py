"""Temporally regularized spectral clustering of time-varying graphs.

Clusters the nodes of a registered graph sequence by solving a sphere- and
slab-constrained cut minimization with an l1 penalty on frame-to-frame label
vector changes, via a primal-dual splitting iteration.

The package namespace is lazy (PEP 562): ``import tvclust`` loads neither numpy
nor scipy, and each exported name imports its defining submodule on first use.
So a command-line entry can still choose the BLAS thread count after the
package is imported (see ``tvclust.entry``).
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    "EmbeddingSequence": "clustering",
    "LabelSequence": "clustering",
    "align_labels": "clustering",
    "align_sequence": "clustering",
    "kmeans": "clustering",
    "static_sc": "clustering",
    "tv_cluster_multi": "clustering",
    "SbmTvParams": "generators",
    "sbm_static": "generators",
    "sbm_tv_sequence": "generators",
    "TVGraphSequence": "graphs",
    "WeightedGraph": "graphs",
    "dense_laplacian": "graphs",
    "largest_eigenvalue": "graphs",
    "smallest_eigenvectors": "graphs",
    "AccuracyReport": "metrics",
    "accuracy_report": "metrics",
    "eigengap_profile": "metrics",
    "label_changes": "metrics",
    "pair_accuracy": "metrics",
    "PointFrameSequence": "pointcloud",
    "downsample": "pointcloud",
    "knn_graph": "pointcloud",
    "load_frames": "pointcloud",
    "prox_conjugate": "prox",
    "prox_slab": "prox",
    "prox_sphere": "prox",
    "soft_threshold": "prox",
    "BlockLaplacian": "solver",
    "SolveResult": "solver",
    "SolverConfig": "solver",
    "SolverError": "solver",
    "pds_solve": "solver",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
