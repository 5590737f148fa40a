"""Adaptive threshold search: Gaussian-intersection start, f1 maximization,
and the accept-or-retain rule, re-triggered on gallery change."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Literal

import numpy as np

from .errors import DegenerateDataError, InputContractError
from .metrics import Rates, metrics_at, rates_at
from .similarity import SimilarityDistributions, build_distributions
from .stats import _threshold_with_source, estimate_gaussian, intersect_gaussians

if TYPE_CHECKING:
    from .gallery import Gallery

logger = logging.getLogger(__name__)

Provenance = Literal["intersection", "mean_fallback", "optimized", "retained_old"]


@dataclass(frozen=True)
class AdaptConfig:
    """Tunables for the adaptive threshold pipeline.

    ``tau`` is the f1 target that lets adaptation accept the intersection
    threshold without optimizing. ``objective`` picks what the search
    maximizes; ``bound_mode`` restricts the search interval to [0, 1] or to
    the window between the cross and auto means.
    """

    tau: float = 0.8
    epsilon: float = 1e-9
    recompute_every_n: int = 1
    objective: Literal["f1", "tpr_fpr_gap"] = "f1"
    bound_mode: Literal["unbounded_01", "means_bounded"] = "unbounded_01"
    tpr_denominator: Literal["standard", "paper"] = "standard"
    # not a field: kept only for the benchmark's grid-floor check on readapt-hard
    grid_points = 512

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise InputContractError("tau must be in (0, 1]")
        if not 0.0 < self.epsilon < math.inf:
            raise InputContractError("epsilon must be finite and > 0")
        if self.recompute_every_n < 1:
            raise InputContractError("recompute_every_n must be >= 1")
        if self.objective not in ("f1", "tpr_fpr_gap"):
            raise InputContractError(f"unknown objective {self.objective!r}")
        if self.bound_mode not in ("unbounded_01", "means_bounded"):
            raise InputContractError(f"unknown bound_mode {self.bound_mode!r}")
        if self.tpr_denominator not in ("standard", "paper"):
            raise InputContractError(
                f"unknown tpr_denominator {self.tpr_denominator!r}"
            )


@dataclass(frozen=True)
class ThresholdState:
    """Current and previous threshold with their f1 scores and provenance."""

    lambda_current: float
    lambda_old: float
    f1_current: float
    f1_old: float
    provenance: Provenance
    gallery_version: int
    tau: float


def _search_bounds(dist: SimilarityDistributions, config: AdaptConfig) -> tuple[float, float]:
    if config.bound_mode == "means_bounded":
        lo = float(np.mean(dist.cross_samples))
        hi = float(np.mean(dist.auto_samples))
        if hi <= lo:
            raise InputContractError(
                "auto mean must exceed cross mean for means-bounded search"
            )
        # thresholds live in [0, 1]; the means window narrows it further
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi < lo:
            raise InputContractError(
                "means-bounded window lies entirely outside [0, 1]"
            )
        return lo, hi
    return 0.0, 1.0


def _plateau_midpoint(values: np.ndarray, x: float, lo: float, hi: float) -> float:
    """Midpoint of the constant-score interval containing x, clipped to [lo, hi].

    The score only changes where a sample value sits, so it is constant on
    each half-open interval (v_k, v_{k+1}].
    """
    j = int(np.searchsorted(values, x, side="left"))
    left = float(values[j - 1]) if j > 0 else -math.inf
    right = float(values[j]) if j < values.size else math.inf
    return 0.5 * (max(left, lo) + min(right, hi))


def _scan_best(
    values: np.ndarray,
    score_fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Exact maximizer of a piecewise-constant score.

    Every plateau intersecting [lo, hi] gets one candidate (the bounds plus
    each in-bound sample value), so the scan is exhaustive. Ties go to the
    lowest plateau; the winner is reported at its plateau midpoint.
    """
    inner = values[(values > lo) & (values < hi)]
    candidates = np.concatenate([[lo], inner, [hi]])
    scores = score_fn(candidates)
    i = int(np.argmax(scores))
    x, score = float(candidates[i]), float(scores[i])
    mid = _plateau_midpoint(values, x, lo, hi)
    mid_score = float(score_fn(np.array([mid]))[0])
    if mid_score >= score:
        return mid, mid_score
    # midpoint rounded out of the plateau (sub-ulp interval); keep the eval point
    return x, score


def _optimize(
    dist: SimilarityDistributions,
    config: AdaptConfig,
    score: Callable[[Rates], np.ndarray],
) -> tuple[float, float]:
    if dist.auto_samples.size == 0 or dist.cross_samples.size == 0:
        raise InputContractError("need at least one auto and one cross sample")
    lo, hi = _search_bounds(dist, config)
    values = np.unique(np.concatenate(dist.sorted_samples))

    def score_fn(thresholds: np.ndarray) -> np.ndarray:
        return score(rates_at(dist, thresholds, config.epsilon, config.tpr_denominator))

    return _scan_best(values, score_fn, lo, hi)


def optimize_f1(
    dist: SimilarityDistributions, config: AdaptConfig | None = None
) -> tuple[float, float]:
    """Threshold maximizing f1 over the configured search interval.

    The objective is piecewise constant (it only changes where a sample value
    sits), so scoring one candidate per plateau is exact at every sample
    size. Returns (threshold, f1) with the threshold at the midpoint of the
    winning plateau, maximizing margin to both sample populations.
    """
    return _optimize(dist, config or AdaptConfig(), lambda r: r.f1)


def optimize_tpr_fpr_gap(
    dist: SimilarityDistributions, config: AdaptConfig | None = None
) -> tuple[float, float]:
    """Threshold maximizing |TPR - FPR|; companion to optimize_f1 for the
    alternate objective, exact on every plateau in the same way."""
    return _optimize(dist, config or AdaptConfig(), lambda r: np.abs(r.tpr - r.fpr))


def tpr_fpr_objective(
    dist: SimilarityDistributions,
    threshold: float,
    epsilon: float = 1e-9,
    tpr_denominator: str = "standard",
) -> float:
    """|TPR - FPR| at one threshold (Youden-style separation gap)."""
    m = metrics_at(dist, threshold, epsilon, tpr_denominator)
    return abs(m.tpr - m.fpr)


def select_threshold(
    lambda_candidate: float,
    f1_candidate: float,
    state: ThresholdState,
    config: AdaptConfig,
) -> ThresholdState:
    """Accept-or-retain rule for a candidate threshold.

    The candidate wins when its f1 reaches the target ``tau``, or at least
    matches the incumbent's f1; otherwise the incumbent is kept. Either way
    the incumbent threshold becomes ``lambda_old`` in the new state.
    """
    if not 0.0 <= lambda_candidate <= 1.0:
        raise InputContractError("candidate threshold must lie in [0, 1]")
    if f1_candidate >= config.tau or f1_candidate >= state.f1_current:
        return ThresholdState(
            lambda_current=float(lambda_candidate),
            lambda_old=state.lambda_current,
            f1_current=float(f1_candidate),
            f1_old=state.f1_current,
            provenance="optimized",
            gallery_version=state.gallery_version,
            tau=config.tau,
        )
    return ThresholdState(
        lambda_current=state.lambda_current,
        lambda_old=state.lambda_current,
        f1_current=state.f1_current,
        f1_old=state.f1_current,
        provenance="retained_old",
        gallery_version=state.gallery_version,
        tau=config.tau,
    )


def _adapt_distributions(
    dist: SimilarityDistributions, config: AdaptConfig
) -> ThresholdState:
    if not dist.estimable:
        raise DegenerateDataError(
            "need >= 2 auto and >= 2 cross samples to estimate Gaussians "
            f"(have {dist.auto_samples.size} and {dist.cross_samples.size})"
        )
    auto_g = estimate_gaussian(dist.auto_samples)
    cross_g = estimate_gaussian(dist.cross_samples)
    intersection = intersect_gaussians(auto_g, cross_g)
    lam0, source = _threshold_with_source(intersection, auto_g, cross_g)
    lam0 = min(1.0, max(0.0, lam0))
    f1_init = metrics_at(dist, lam0, config.epsilon, config.tpr_denominator).f1
    incumbent = ThresholdState(
        lambda_current=lam0,
        lambda_old=lam0,
        f1_current=f1_init,
        f1_old=f1_init,
        provenance=source,
        gallery_version=dist.gallery_version,
        tau=config.tau,
    )
    if f1_init >= config.tau:
        return incumbent
    if config.objective == "tpr_fpr_gap":
        candidate, _ = optimize_tpr_fpr_gap(dist, config)
        candidate_f1 = metrics_at(
            dist, candidate, config.epsilon, config.tpr_denominator
        ).f1
    else:
        candidate, candidate_f1 = optimize_f1(dist, config)
    return select_threshold(candidate, candidate_f1, incumbent, config)


def adapt(
    gallery: "Gallery",
    state: ThresholdState | None = None,
    config: AdaptConfig | None = None,
) -> ThresholdState | None:
    """One full adaptation pass over the gallery.

    Builds the auto/cross distributions, fits both Gaussians, initializes the
    threshold at their intersection (midpoint-of-means fallback), accepts it
    outright when its f1 reaches ``tau``, and otherwise optimizes with the
    intersection threshold as the incumbent. On success the gallery's
    registration counter is reset and the returned state is stamped with the
    gallery version.

    When the distributions cannot support Gaussian estimation (too few
    samples, zero variance, or indistinguishable auto/cross), adaptation is
    skipped: the prior ``state`` is returned unchanged and a warning logged.
    Contract violations (fewer than two identities, auto mean not above the
    cross mean) propagate as errors.
    """
    return _adapt_built(gallery, build_distributions(gallery), state, config or AdaptConfig())


def _adapt_built(
    gallery: "Gallery",
    dist: SimilarityDistributions,
    state: ThresholdState | None,
    config: AdaptConfig,
) -> ThresholdState | None:
    """:func:`adapt` over distributions already built from ``gallery`` at its
    current version, for callers that need them too."""
    try:
        new_state = _adapt_distributions(dist, config)
    except DegenerateDataError as exc:
        logger.warning("adaptation skipped: %s", exc)
        return state
    gallery.mark_adapted()
    return new_state


def maybe_adapt(
    gallery: "Gallery",
    state: ThresholdState | None,
    config: AdaptConfig | None = None,
) -> ThresholdState | None:
    """Adapt only when warranted: cold start, enough new registrations, or any
    deletion since the state was stamped."""
    config = config or AdaptConfig()
    if state is None:
        return adapt(gallery, state, config)
    if gallery.registrations_since_adapt >= config.recompute_every_n:
        return adapt(gallery, state, config)
    mutations = gallery.change_counter - state.gallery_version
    if mutations > gallery.registrations_since_adapt:
        # more mutations than registrations since the stamp: something was deleted
        return adapt(gallery, state, config)
    return state
