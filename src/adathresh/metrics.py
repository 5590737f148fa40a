"""Confusion counts, threshold metrics, and ROC/AUC over similarity samples."""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InputContractError
from .similarity import SimilarityDistributions

TprDenominator = Literal["standard", "paper"]

# Margin added beyond the observed sample range when sweeping thresholds.
_SWEEP_MARGIN = 1e-6


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FP/FN/TN at one threshold; equality counts as a positive prediction."""

    tp: int
    fp: int
    fn: int
    tn: int
    threshold: float


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    accuracy: float
    tpr: float
    fpr: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class Rates:
    """Confusion counts and the rates formed from them, one entry per threshold."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray


@dataclass(frozen=True)
class RocCurve:
    """(fpr, tpr, threshold) points in descending-threshold order, plus the
    exact AUC."""

    points: list[tuple[float, float, float]]
    auc: float


def _require_samples(dist: SimilarityDistributions) -> None:
    if dist.auto_samples.size == 0 or dist.cross_samples.size == 0:
        raise InputContractError("need at least one auto and one cross sample")


def count_at_least(
    dist: SimilarityDistributions, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(tp, fp): how many auto and how many cross samples reach each threshold.

    A sample equal to the threshold predicts positive. Binary search over the
    distributions' sorted copies, which is exactly equivalent to a direct scan.
    """
    _require_samples(dist)
    auto_sorted, cross_sorted = dist.sorted_samples
    tp = auto_sorted.size - np.searchsorted(auto_sorted, thresholds, side="left")
    fp = cross_sorted.size - np.searchsorted(cross_sorted, thresholds, side="left")
    return tp, fp


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
    """
    if not 0.0 <= epsilon < math.inf:
        raise InputContractError("epsilon must be finite and >= 0")
    if tpr_denominator not in ("standard", "paper"):
        raise InputContractError(f"unknown tpr_denominator {tpr_denominator!r}")
    tp, fp = (c.astype(np.float64) for c in count_at_least(dist, thresholds))
    fn = dist.auto_samples.size - tp
    tn = dist.cross_samples.size - fp
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
) -> MetricsReport:
    """Precision/recall/f1/accuracy plus ROC rates at one threshold.

    This is :func:`rates_at` at a single threshold, so it scores exactly as
    the optimizer's sweep does.
    """
    r = rates_at(dist, np.array([threshold], dtype=np.float64), epsilon, tpr_denominator)
    return MetricsReport(
        precision=float(r.precision[0]),
        recall=float(r.recall[0]),
        f1=float(r.f1[0]),
        accuracy=float(r.accuracy[0]),
        tpr=float(r.tpr[0]),
        fpr=float(r.fpr[0]),
        counts=ConfusionCounts(
            tp=int(r.tp[0]),
            fp=int(r.fp[0]),
            fn=int(r.fn[0]),
            tn=int(r.tn[0]),
            threshold=float(threshold),
        ),
    )


def confusion_at(dist: SimilarityDistributions, threshold: float) -> ConfusionCounts:
    """Count predictions at ``threshold``; samples equal to it predict positive."""
    return metrics_at(dist, threshold).counts


def roc_auc(dist: SimilarityDistributions) -> float:
    """Exact area under the ROC curve: the Mann-Whitney statistic
    P(auto > cross) + P(auto == cross) / 2 over every auto/cross pair.

    For each cross sample, two binary searches over the sorted auto samples
    count the auto samples at least as high and those strictly higher; their
    mean is that cross sample's share of the area, ties counted as one half.
    """
    _require_samples(dist)
    auto_sorted = dist.sorted_samples[0]
    n_auto = auto_sorted.size
    cross = dist.cross_samples
    at_least = n_auto - np.searchsorted(auto_sorted, cross, side="left")
    above = n_auto - np.searchsorted(auto_sorted, cross, side="right")
    return float((at_least.sum() + above.sum()) / (2 * n_auto * cross.size))


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
    if num_points < 2:
        raise InputContractError("num_points must be >= 2")
    samples = np.concatenate([dist.auto_samples, dist.cross_samples])
    lo = float(samples.min()) - _SWEEP_MARGIN
    hi = float(samples.max()) + _SWEEP_MARGIN
    full = np.linspace(hi, lo, num_points + 2)
    grid = full[1:-1]
    r = rates_at(dist, grid, epsilon)

    points: list[tuple[float, float, float]] = [(0.0, 0.0, float(full[0]))]
    points.extend(zip(r.fpr.tolist(), r.tpr.tolist(), grid.tolist()))
    points.append((1.0, 1.0, float(full[-1])))
    return RocCurve(points=points, auc=roc_auc(dist))
