"""Adaptive threshold search: Gaussian-intersection start, f1 maximization,
and the accept-or-retain rule, re-triggered on gallery change."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from .errors import DegenerateDataError, InputContractError, real_number, whole_number
from .metrics import metrics_at, rates_at
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
    threshold without optimizing. ``epsilon`` and ``tpr_denominator`` shape
    only the reported TPR and FPR: an adapted state depends on the samples
    and ``tau`` alone.
    """

    tau: float = 0.8
    epsilon: float = 1e-9
    recompute_every_n: int = 1
    tpr_denominator: Literal["standard", "paper"] = "standard"
    # not a field: kept only for the benchmark's grid-floor check on readapt-hard
    grid_points = 512

    def __post_init__(self):
        for name in ("tau", "epsilon"):
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if not 0.0 < self.tau <= 1.0:
            raise InputContractError("tau must be in (0, 1]")
        if not 0.0 < self.epsilon < math.inf:
            raise InputContractError("epsilon must be finite and > 0")
        object.__setattr__(
            self, "recompute_every_n", whole_number(self.recompute_every_n, "recompute_every_n")
        )
        if self.recompute_every_n < 1:
            raise InputContractError("recompute_every_n must be >= 1")
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


def _plateau_midpoint(sides: tuple[np.ndarray, ...], x: float) -> float:
    """Midpoint of the constant-f1 interval containing x, clipped to [0, 1].

    f1 only changes where a sample value sits, so it is constant on each
    half-open interval (v_k, v_{k+1}] between neighbouring values of the
    sorted ``sides`` taken together.
    """
    left, right = 0.0, 1.0
    for values in sides:
        j = int(np.searchsorted(values, x, side="left"))
        if j > 0:
            left = max(left, float(values[j - 1]))
        if j < values.size:
            right = min(right, float(values[j]))
    return 0.5 * (left + right)


def optimize_f1(
    dist: SimilarityDistributions, config: AdaptConfig | None = None
) -> tuple[float, float]:
    """Threshold in [0, 1] maximizing f1; returns (threshold, f1).

    f1 is piecewise constant: it only changes where a sample value sits. The
    candidates are the two bounds and every auto value inside them, scored
    with one :func:`rates_at` call, and that is exact at every sample size.
    For any t in [0, 1], let a be the smallest candidate >= t. No auto value
    lies in [t, a), so tp(a) = tp(t) and fp(a) <= fp(t), with fp(a) < fp(t)
    when t is a cross value below a. With tp > 0, the exact f1 at a then
    exceeds that at t by a relative 1/(2tp + fp + fn) or more, far above the
    few-ulp error of 2PR/(P+R) for any sample count under about 1e14. So a
    cross value reaches the best f1 only where an auto value equals it, or
    where f1 is 0 everywhere, and then the 0 bound wins. The lowest maximizer
    over all plateaus is thus a candidate, and the sweep's working memory is
    a few arrays of the auto side's length, never a copy of the samples.

    Ties go to the lowest plateau; the winner is reported at its plateau
    midpoint, maximizing margin to both sample populations. f1 does not
    depend on ``config``'s fields; the argument is accepted for callers that
    pass one.
    """
    auto = dist.auto_samples
    # ascending: the in-bound values are a contiguous view
    inner = auto[np.searchsorted(auto, 0.0, "right") : np.searchsorted(auto, 1.0, "left")]
    candidates = np.concatenate(([0.0], inner, [1.0]))
    scores = rates_at(dist, candidates).f1
    k = int(np.argmax(scores))  # the first, so the lowest, candidate scoring best
    x, score = float(candidates[k]), float(scores[k])
    mid = _plateau_midpoint((auto, dist.cross_samples), x)
    mid_score = float(rates_at(dist, np.array([mid])).f1[0])
    if mid_score >= score:
        return mid, mid_score
    # midpoint rounded out of the plateau (sub-ulp interval); keep the eval point
    return x, score


def select_threshold(
    lambda_candidate: float,
    f1_candidate: float,
    state: ThresholdState,
    config: AdaptConfig,
) -> ThresholdState:
    """Accept-or-retain rule for a candidate threshold.

    The candidate wins when its f1 reaches the target ``tau``, or at least
    matches the incumbent's f1; otherwise the incumbent is kept. Either way
    the incumbent threshold becomes ``lambda_old`` in the new state. Inside
    :func:`adapt` the candidate is the exact f1 optimum over [0, 1], which
    holds the intersection incumbent, so it always wins there and the rule
    only records ``lambda_old``/``f1_old``.
    """
    if not 0.0 <= lambda_candidate <= 1.0:
        raise InputContractError("candidate threshold must lie in [0, 1]")
    accept = f1_candidate >= config.tau or f1_candidate >= state.f1_current
    return ThresholdState(
        lambda_current=float(lambda_candidate) if accept else state.lambda_current,
        lambda_old=state.lambda_current,
        f1_current=float(f1_candidate) if accept else state.f1_current,
        f1_old=state.f1_current,
        provenance="optimized" if accept else "retained_old",
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
    f1_init = metrics_at(dist, lam0).f1
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
    candidate, candidate_f1 = optimize_f1(dist)
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
