"""Vector metrics and the auto/cross similarity distributions of a gallery."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Literal

import numpy as np

from .errors import DimensionMismatchError, InputContractError, ZeroVectorError

if TYPE_CHECKING:
    from .gallery import Gallery

logger = logging.getLogger(__name__)

_REDUCERS = {"max": np.max, "mean": np.mean}


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise InputContractError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _check_dims(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}"
        )


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVectorError("zero-norm vector has no direction")
    return v / norm


def cosine_similarity(x, y) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    xv, yv = _as_vector(x), _as_vector(y)
    _check_dims(xv, yv)
    value = float(np.dot(_unit(xv), _unit(yv)))
    return min(1.0, max(-1.0, value))


def cosine_distance(x, y) -> float:
    """1 - cosine_similarity(x, y); ranges over [0, 2]."""
    return 1.0 - cosine_similarity(x, y)


def euclidean_distance(x, y) -> float:
    """Straight-line distance between two points."""
    xv, yv = _as_vector(x), _as_vector(y)
    _check_dims(xv, yv)
    return float(np.linalg.norm(xv - yv))


@dataclass(frozen=True)
class IdentityPair:
    """Best similarity achieved within one identity or between two."""

    kind: Literal["auto", "cross"]
    first: str
    second: str
    s_max: float


@dataclass(frozen=True)
class SimilarityDistributions:
    """Auto (same-identity) and cross (different-identity) best-similarity samples."""

    auto_samples: np.ndarray
    cross_samples: np.ndarray
    gallery_version: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "auto_samples", np.asarray(self.auto_samples, dtype=np.float64)
        )
        object.__setattr__(
            self, "cross_samples", np.asarray(self.cross_samples, dtype=np.float64)
        )

    @property
    def estimable(self) -> bool:
        """True when both sides have enough samples (>= 2) to fit a Gaussian."""
        return self.auto_samples.size >= 2 and self.cross_samples.size >= 2

    @cached_property
    def sorted_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending copies of (auto, cross), sorted once and shared by every
        threshold count; the public sample arrays keep their order."""
        return np.sort(self.auto_samples), np.sort(self.cross_samples)


def _pairs_from_identities(identities, reducer: str) -> list[IdentityPair]:
    if reducer not in _REDUCERS:
        raise InputContractError(f"unknown reducer {reducer!r}")
    reduce_fn = _REDUCERS[reducer]
    labels = sorted(identities)

    spans = []
    blocks = []
    pos = 0
    for label in labels:
        vecs = np.stack([e.vector for e in identities[label]])
        blocks.append(vecs)
        spans.append((label, pos, pos + vecs.shape[0]))
        pos += vecs.shape[0]
    allv = np.vstack(blocks)
    unit = allv / np.linalg.norm(allv, axis=1, keepdims=True)
    gram = np.clip(unit @ unit.T, -1.0, 1.0)

    pairs = []
    for label, lo, hi in spans:
        k = hi - lo
        if k >= 2:
            block = gram[lo:hi, lo:hi]
            # pairing an instance with itself always scores 1.0; only
            # distinct-instance pairs carry information
            off_diag = block[~np.eye(k, dtype=bool)]
            pairs.append(IdentityPair("auto", label, label, float(reduce_fn(off_diag))))
    for i, (li, lo_i, hi_i) in enumerate(spans):
        for lj, lo_j, hi_j in spans[i + 1 :]:
            s = float(reduce_fn(gram[lo_i:hi_i, lo_j:hi_j]))
            pairs.append(IdentityPair("cross", li, lj, s))
    return pairs


def build_identity_pairs(gallery: "Gallery", reducer: str = "max") -> list[IdentityPair]:
    """Enumerate every auto pair (identities holding >= 2 embeddings) and every
    unordered cross pair, each carrying its reduced similarity.

    Pairs come out in sorted-label order, so repeated calls on the same
    gallery version are element-wise identical.
    """
    _, identities = gallery.snapshot()
    if len(identities) < 2:
        raise InputContractError("need at least 2 identities to form cross pairs")
    return _pairs_from_identities(identities, reducer)


def build_distributions(gallery: "Gallery", reducer: str = "max") -> SimilarityDistributions:
    """Collect the per-pair best similarities into auto and cross sample sets.

    Identities with a single embedding contribute no auto sample. An empty
    auto side is returned as-is (and logged); callers that need Gaussian
    estimates should check ``estimable`` first.
    """
    version, identities = gallery.snapshot()
    if len(identities) < 2:
        raise InputContractError("need at least 2 identities to form cross pairs")
    pairs = _pairs_from_identities(identities, reducer)
    auto = [p.s_max for p in pairs if p.kind == "auto"]
    cross = [p.s_max for p in pairs if p.kind == "cross"]
    if not auto:
        logger.warning(
            "no identity has two or more embeddings: auto distribution is empty"
        )
    return SimilarityDistributions(auto, cross, version)
