"""Reference computations the benchmark checks the program against.

They use numpy only and share no code with ``adathresh``: each one follows
the method's definition directly, and ``test_oracles.py`` pins each to a
plain Python loop on tiny inputs.
"""

from __future__ import annotations

import numpy as np


def unit_rows(vectors) -> np.ndarray:
    """Rows of ``vectors`` scaled to unit length."""
    mat = np.asarray(vectors, dtype=np.float64)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


class BlockMax:
    """Best cosine similarity (clamped to [-1, 1]) between every two
    identities of a gallery, and within each identity, from its raw vectors.

    The auto sample of an identity with two or more embeddings is the best
    similarity between two of its distinct embeddings. The cross sample of an
    unordered pair of identities is the best similarity between an embedding
    of one and an embedding of the other.
    """

    def __init__(self, vectors, labels):
        labels = np.asarray(labels, dtype=object)
        order = np.argsort(labels, kind="stable")
        units = unit_rows(np.asarray(vectors, dtype=np.float64)[order])
        ordered = labels[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        gram = np.clip(units @ units.T, -1.0, 1.0)
        np.fill_diagonal(gram, -np.inf)  # an embedding paired with itself is no sample
        rows = np.maximum.reduceat(gram, starts, axis=0)
        self.block = np.maximum.reduceat(rows, starts, axis=1)
        self.sizes = np.diff(np.r_[starts, ordered.size])
        self.index = {label: k for k, label in enumerate(ordered[starts])}

    def samples(self, identities=None) -> tuple[np.ndarray, np.ndarray]:
        """Sorted auto and cross samples of the gallery made of ``identities``
        (default: all of them)."""
        idx = (
            np.arange(self.sizes.size)
            if identities is None
            else np.array([self.index[label] for label in identities])
        )
        sub = self.block[np.ix_(idx, idx)]
        auto = np.diag(sub)[self.sizes[idx] >= 2]
        cross = sub[np.triu_indices(idx.size, k=1)]
        return np.sort(auto), np.sort(cross)


def counts_at(auto_sorted: np.ndarray, cross_sorted: np.ndarray, threshold):
    """(tp, fp, fn, tn) at ``threshold``; a sample equal to it predicts positive."""
    tp = auto_sorted.size - np.searchsorted(auto_sorted, threshold, side="left")
    fp = cross_sorted.size - np.searchsorted(cross_sorted, threshold, side="left")
    return tp, fp, auto_sorted.size - tp, cross_sorted.size - fp


def f1_from_counts(tp, fp, fn):
    """f1 = 2tp / (2tp + fp + fn), and 0 where nothing is predicted or present."""
    tp, fp, fn = (np.asarray(x, dtype=np.float64) for x in (tp, fp, fn))
    den = 2.0 * tp + fp + fn
    return np.where(tp > 0, 2.0 * tp / np.where(den > 0, den, 1.0), 0.0)


def f1_at(auto_sorted: np.ndarray, cross_sorted: np.ndarray, threshold: float) -> float:
    tp, fp, fn, _ = counts_at(auto_sorted, cross_sorted, threshold)
    return float(f1_from_counts(tp, fp, fn))


def exact_f1_optimum(
    auto_sorted: np.ndarray, cross_sorted: np.ndarray, lo: float = 0.0, hi: float = 1.0
) -> float:
    """Best f1 over every threshold in [lo, hi], by a plateau scan.

    f1 only changes where a sample value sits, so it is constant on each
    interval (v_k, v_{k+1}] between neighbouring distinct values. Scoring the
    bounds and every distinct value strictly inside them scores every plateau
    that meets [lo, hi].
    """
    values = np.unique(np.concatenate([auto_sorted, cross_sorted]))
    candidates = np.concatenate([[lo], values[(values > lo) & (values < hi)], [hi]])
    tp, fp, fn, _ = counts_at(auto_sorted, cross_sorted, candidates)
    return float(f1_from_counts(tp, fp, fn).max())


def mann_whitney_auc(auto, cross) -> float:
    """P(auto > cross) + P(auto == cross) / 2 over every auto/cross pair."""
    cross_sorted = np.sort(np.asarray(cross, dtype=np.float64))
    auto = np.asarray(auto, dtype=np.float64)
    below = np.searchsorted(cross_sorted, auto, side="left")
    equal = np.searchsorted(cross_sorted, auto, side="right") - below
    return float((below.sum() + 0.5 * equal.sum()) / (auto.size * cross_sorted.size))


def best_match(units: np.ndarray, labels, query, tol: float = 0.0) -> tuple[float, str]:
    """Brute-force best cosine similarity of ``query`` over the rows of
    ``units`` (unit length, one label per row).

    Ties go to the lexicographically smallest label; labels whose similarity
    is within ``tol`` of the best count as tied.
    """
    q = np.asarray(query, dtype=np.float64)
    sims = np.clip(units @ (q / np.linalg.norm(q)), -1.0, 1.0)
    best = float(sims.max())
    tied = np.flatnonzero(sims >= best - tol)
    return best, min(labels[i] for i in tied)
