"""Adaptive decision thresholds for identity embedding galleries.

Maintains a gallery of identity-labeled feature vectors and keeps a
classification threshold tuned to it: auto/cross similarity distributions are
summarized by Gaussians, their intersection seeds the threshold, and when the
seed's f1 misses the target ``tau`` the exact f1 maximum over [0, 1], which
never scores below the seed, replaces it. This re-runs whenever the gallery
changes.
"""

from .errors import (
    AdathreshError,
    DegenerateDataError,
    DimensionMismatchError,
    EmptyGalleryError,
    GalleryFormatError,
    InputContractError,
    ZeroVectorError,
)
from .experiment import (
    ExperimentRow,
    KindSummary,
    StreamEvent,
    SummaryReport,
    SynthSpec,
    export,
    export_stream_events,
    generate_synthetic,
    roc_export,
    run_incremental,
    simulate_stream,
    summarize,
)
from .gallery import Embedding, Gallery, MatchResult
from .metrics import (
    Rates,
    RocCurve,
    metrics_at,
    roc_auc,
    roc_sweep,
)
from .optimizer import (
    AdaptConfig,
    ThresholdState,
    adapt,
    maybe_adapt,
    optimize_f1,
    select_threshold,
)
from .similarity import SimilarityDistributions, build_distributions
from .stats import (
    GaussianEstimate,
    IntersectionResult,
    estimate_gaussian,
    gaussian_pdf,
    initialize_threshold,
    intersect_gaussians,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdathreshError",
    "DegenerateDataError",
    "DimensionMismatchError",
    "Embedding",
    "EmptyGalleryError",
    "ExperimentRow",
    "Gallery",
    "GalleryFormatError",
    "GaussianEstimate",
    "InputContractError",
    "IntersectionResult",
    "KindSummary",
    "MatchResult",
    "Rates",
    "RocCurve",
    "SimilarityDistributions",
    "StreamEvent",
    "SummaryReport",
    "SynthSpec",
    "ThresholdState",
    "ZeroVectorError",
    "adapt",
    "build_distributions",
    "estimate_gaussian",
    "export",
    "export_stream_events",
    "gaussian_pdf",
    "generate_synthetic",
    "initialize_threshold",
    "intersect_gaussians",
    "maybe_adapt",
    "metrics_at",
    "optimize_f1",
    "roc_auc",
    "roc_export",
    "roc_sweep",
    "run_incremental",
    "select_threshold",
    "simulate_stream",
    "summarize",
]
