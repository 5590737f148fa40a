"""Shared fixtures and naive oracles (pure-Python, independent of the library
code paths they check)."""

import math

import numpy as np
import pytest

from adathresh import Gallery


def naive_cosine(x, y) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(x, y))
    nx = math.sqrt(sum(float(a) ** 2 for a in x))
    ny = math.sqrt(sum(float(b) ** 2 for b in y))
    return dot / (nx * ny)


def naive_distributions(gallery):
    """Brute-force auto/cross best similarities by exhaustive pair loops."""
    _, identities = gallery.snapshot()
    labels = sorted(identities)
    auto = []
    for label in labels:
        embs = identities[label]
        if len(embs) >= 2:
            auto.append(
                max(
                    naive_cosine(a.vector, b.vector)
                    for i, a in enumerate(embs)
                    for b in embs[i + 1 :]
                )
            )
    cross = []
    for i, li in enumerate(labels):
        for lj in labels[i + 1 :]:
            cross.append(
                max(
                    naive_cosine(a.vector, b.vector)
                    for a in identities[li]
                    for b in identities[lj]
                )
            )
    return auto, cross


def naive_confusion(auto, cross, threshold):
    tp = sum(1 for s in auto if s >= threshold)
    fp = sum(1 for s in cross if s >= threshold)
    return tp, fp, len(auto) - tp, len(cross) - fp


def naive_f1(auto, cross, threshold) -> float:
    tp, fp, fn, _ = naive_confusion(auto, cross, threshold)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def naive_gap(auto, cross, threshold, epsilon=1e-9, tpr_denominator="standard") -> float:
    tp, fp, fn, tn = naive_confusion(auto, cross, threshold)
    tpr_den = (tp + fp if tpr_denominator == "paper" else tp + fn) + epsilon
    return abs(tp / tpr_den - fp / (fp + tn + epsilon))


def plateau_candidates(auto, cross, lo=0.0, hi=1.0):
    """One threshold per plateau: both bounds plus every in-bound sample value."""
    values = sorted(set(float(s) for s in auto) | set(float(s) for s in cross))
    return [lo] + [v for v in values if lo < v < hi] + [hi]


def plateau_oracle_max(auto, cross, lo=0.0, hi=1.0) -> float:
    """Exhaustive maximum f1 over every plateau in [lo, hi]."""
    return max(naive_f1(auto, cross, t) for t in plateau_candidates(auto, cross, lo, hi))


def mann_whitney_auc(auto, cross) -> float:
    """Pairwise-comparison AUC: P(auto > cross) + 0.5 P(auto == cross)."""
    auto = np.asarray(auto, dtype=np.float64)
    cross = np.asarray(cross, dtype=np.float64)
    greater = (auto[:, None] > cross[None, :]).sum()
    equal = (auto[:, None] == cross[None, :]).sum()
    return float((greater + 0.5 * equal) / (auto.size * cross.size))


def clustered_gallery(
    num_identities=4, per_identity=3, dim=16, within=0.2, seed=0
) -> Gallery:
    """Gallery of unit vectors jittered around one random center per identity."""
    rng = np.random.default_rng(seed)
    gallery = Gallery(dim)
    for i in range(num_identities):
        center = rng.standard_normal(dim)
        center /= np.linalg.norm(center)
        for _ in range(per_identity):
            v = center + within * rng.standard_normal(dim)
            gallery.register(f"id{i:02d}", v / np.linalg.norm(v))
    return gallery


@pytest.fixture
def make_gallery():
    return clustered_gallery
