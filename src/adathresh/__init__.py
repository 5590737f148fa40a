"""Adaptive decision thresholds for identity embedding galleries.

Maintains a gallery of identity-labeled feature vectors and keeps a
classification threshold tuned to it: auto/cross similarity distributions are
summarized by Gaussians, their intersection seeds the threshold, and bounded
f1 maximization with an accept-or-retain rule refines it whenever the gallery
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
    read_rows,
    roc_export,
    run_incremental,
    simulate_stream,
    summarize,
)
from .gallery import Embedding, Gallery, MatchResult
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    RocCurve,
    confusion_at,
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
    optimize_tpr_fpr_gap,
    select_threshold,
    tpr_fpr_objective,
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
    "ConfusionCounts",
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
    "MetricsReport",
    "RocCurve",
    "SimilarityDistributions",
    "StreamEvent",
    "SummaryReport",
    "SynthSpec",
    "ThresholdState",
    "ZeroVectorError",
    "adapt",
    "build_distributions",
    "confusion_at",
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
    "optimize_tpr_fpr_gap",
    "read_rows",
    "roc_auc",
    "roc_export",
    "roc_sweep",
    "run_incremental",
    "select_threshold",
    "simulate_stream",
    "summarize",
    "tpr_fpr_objective",
]
