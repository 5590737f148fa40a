"""The package's public surface: a name is added to it or taken from it on
purpose, with this list changed in the same commit; and the one rule its
integer and real-number arguments follow."""

import numpy as np
import pytest

import adathresh
from adathresh import (
    AdaptConfig,
    Gallery,
    InputContractError,
    SimilarityDistributions,
    SynthSpec,
    generate_synthetic,
    metrics_at,
    roc_sweep,
    run_incremental,
    summarize,
)

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


_SPEC = dict(
    num_identities=3, embeddings_per_identity=2, dimension=4,
    within_spread=0.2, between_spread=1.0, rng_seed=1,
)  # fmt: skip
_SOURCE = generate_synthetic(SynthSpec(**_SPEC))
_DIST = SimilarityDistributions([0.9, 0.8], [0.1, 0.2, 0.3])
_ROWS = run_incremental(_SOURCE, fixed_list=[0.5])

# (the name the error gives, a call that passes one value in that argument)
_WHOLE = [
    ("gallery dimension", lambda v: Gallery(v)),
    ("recompute_every_n", lambda v: AdaptConfig(recompute_every_n=v)),
    *[(f, lambda v, f=f: SynthSpec(**{**_SPEC, f: v})) for f in
      ("num_identities", "embeddings_per_identity", "dimension", "rng_seed")],
    ("num_points", lambda v: roc_sweep(_DIST, v)),
]  # fmt: skip
_REAL = [
    *[(f, lambda v, f=f: SynthSpec(**{**_SPEC, f: v})) for f in ("within_spread", "between_spread")],
    ("fixed threshold", lambda v: run_incremental(_SOURCE, fixed_list=[v])),
    ("epsilon", lambda v: metrics_at(_DIST, 0.5, epsilon=v)),
    ("f1_target", lambda v: summarize(_ROWS, v)),
]


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, v, id=f"{name}={v!r}")
        for calls, values in (
            (_WHOLE, (3.0, 2.5, "3", None, True, np.bool_(True))),
            (_REAL, ("0.5", None, [0.5], True, np.bool_(True), np.nan)),
        )
        for name, call in calls
        for v in values
    ],
)
def test_a_bad_number_is_a_contract_error(name, call, value):
    with pytest.raises(InputContractError, match=f"^{name} must "):
        call(value)
