"""Confusion counts, threshold metrics, and ROC/AUC over similarity samples."""

import math
from dataclasses import dataclass, fields
from typing import Literal

import numpy as np

from .errors import InputContractError, real_number, whole_number
from .similarity import SimilarityDistributions

TprDenominator = Literal["standard", "paper"]

# Margin added beyond the observed sample range when sweeping thresholds.
_SWEEP_MARGIN = 1e-6


@dataclass(frozen=True)
class Rates:
    """Confusion counts (exact integral floats) and the rates formed from them."""

    tp: np.ndarray | float
    fp: np.ndarray | float
    fn: np.ndarray | float
    tn: np.ndarray | float
    precision: np.ndarray | float
    recall: np.ndarray | float
    f1: np.ndarray | float
    accuracy: np.ndarray | float
    tpr: np.ndarray | float
    fpr: np.ndarray | float


@dataclass(frozen=True)
class RocCurve:
    """(fpr, tpr, threshold) points in descending-threshold order, plus the
    exact AUC."""

    points: list[tuple[float, float, float]]
    auc: float


def _require_samples(dist: SimilarityDistributions) -> None:
    if dist.auto_samples.size == 0 or dist.cross_samples.size == 0:
        raise InputContractError("need at least one auto and one cross sample")


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def rates_at(
    dist: SimilarityDistributions,
    thresholds: np.ndarray,
    epsilon: float = 1e-9,
    tpr_denominator: TprDenominator = "standard",
) -> Rates:
    """Counts, precision/recall/f1/accuracy and ROC rates at each threshold.

    Precision and recall are exact ratios, defined as 0 when their denominator
    vanishes (as is f1 when both are 0). The ROC rates keep ``epsilon`` in the
    denominator as a division guard, and are 0 should even that vanish.
    ``tpr_denominator="paper"`` switches TPR to tp/(tp+fp+eps), the literal
    reading of the source formula; the standard tp/(tp+fn+eps) is the default
    because the paper form degenerates the ROC into precision-vs-fallout.
    ``epsilon`` is checked by :func:`real_number`.
    """
    epsilon = real_number(epsilon, "epsilon")
    if not 0.0 <= epsilon < math.inf:
        raise InputContractError("epsilon must be finite and >= 0")
    if tpr_denominator not in ("standard", "paper"):
        raise InputContractError(f"unknown tpr_denominator {tpr_denominator!r}")
    if np.isnan(thresholds).any():
        # every comparison with NaN is false, so it would silently count nothing
        raise InputContractError("thresholds must not be NaN")
    _require_samples(dist)
    # a sample equal to the threshold predicts positive; a binary search over
    # each sorted side counts exactly what a direct scan would
    auto, cross = dist.auto_samples, dist.cross_samples
    tp = (auto.size - np.searchsorted(auto, thresholds, side="left")).astype(np.float64)
    fp = (cross.size - np.searchsorted(cross, thresholds, side="left")).astype(np.float64)
    fn = auto.size - tp
    tn = cross.size - fp
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    tpr_den = tp + fp if tpr_denominator == "paper" else tp + fn
    return Rates(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f1=_ratio(2.0 * precision * recall, precision + recall),
        accuracy=(tp + tn) / (tp + tn + fp + fn),
        tpr=_ratio(tp, tpr_den + epsilon),
        fpr=_ratio(fp, fp + tn + epsilon),
    )


def metrics_at(
    dist: SimilarityDistributions,
    threshold: float,
    epsilon: float = 1e-9,
    tpr_denominator: TprDenominator = "standard",
) -> Rates:
    """Counts, precision/recall/f1/accuracy and ROC rates at one threshold.

    This is :func:`rates_at` at a single threshold, so it scores exactly as
    the optimizer's sweep does; ``threshold`` is checked by :func:`real_number`.
    """
    r = rates_at(dist, np.array([real_number(threshold, "threshold")]), epsilon, tpr_denominator)
    return Rates(**{f.name: getattr(r, f.name).item() for f in fields(Rates)})


def roc_auc(dist: SimilarityDistributions) -> float:
    """Exact area under the ROC curve: the Mann-Whitney statistic
    P(auto > cross) + P(auto == cross) / 2 over every auto/cross pair.

    For each auto sample, two binary searches over the sorted cross samples
    count the cross samples strictly below it and those at most it. Summed,
    they are the pairs with auto > cross and the pairs with auto >= cross,
    the same two integers that counting auto samples per cross sample would
    give, so the float is the same. A gallery has one auto sample per
    identity and one cross sample per pair of identities, so searching from
    the auto side costs O(A log C) where the other way costs O(C log A).
    """
    _require_samples(dist)
    auto, cross = dist.auto_samples, dist.cross_samples
    below = np.searchsorted(cross, auto, side="left")
    at_most = np.searchsorted(cross, auto, side="right")
    return float((below.sum() + at_most.sum()) / (2 * auto.size * cross.size))


def roc_sweep(
    dist: SimilarityDistributions,
    num_points: int,
    epsilon: float = 1e-9,
) -> RocCurve:
    """ROC curve over a threshold grid spanning the observed sample range.

    The sweep interval runs a hair beyond the extreme samples; its endpoints
    are the exact (0,0) and (1,1) anchors and ``num_points`` evenly spaced
    interior thresholds fill it. The points are for plotting; the AUC is the
    exact :func:`roc_auc`, not an area under the grid.
    """
    _require_samples(dist)
    num_points = whole_number(num_points, "num_points")
    if num_points < 2:
        raise InputContractError("num_points must be >= 2")
    auto, cross = dist.auto_samples, dist.cross_samples
    lo = float(min(auto[0], cross[0])) - _SWEEP_MARGIN
    hi = float(max(auto[-1], cross[-1])) + _SWEEP_MARGIN
    full = np.linspace(hi, lo, num_points + 2)
    grid = full[1:-1]
    r = rates_at(dist, grid, epsilon)

    points: list[tuple[float, float, float]] = [(0.0, 0.0, float(full[0]))]
    points.extend(zip(r.fpr.tolist(), r.tpr.tolist(), grid.tolist()))
    points.append((1.0, 1.0, float(full[-1])))
    return RocCurve(points=points, auc=roc_auc(dist))
