"""The package's public surface: a name is added to it or taken from it on
purpose, with this list changed in the same commit."""

import adathresh

PUBLIC = [
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
    "read_rows",
    "roc_auc",
    "roc_export",
    "roc_sweep",
    "run_incremental",
    "select_threshold",
    "simulate_stream",
    "summarize",
]


def test_public_names_are_pinned():
    assert sorted(adathresh.__all__) == PUBLIC
    assert all(hasattr(adathresh, name) for name in PUBLIC)
