"""Unit vectors and the auto/cross similarity distributions of a gallery."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputContractError, ZeroVectorError

if TYPE_CHECKING:
    from .gallery import Gallery

logger = logging.getLogger(__name__)

_TINY = np.finfo(np.float64).tiny


def unit_vector(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to norm 1, for any finite non-zero 1-D float64 vector.

    When the squared norm is a normal float this is ``v / sqrt(sum(v * v))``,
    which gives each row the bits that ``v / np.linalg.norm(v, axis=1)`` gives
    it in a batch (``np.linalg.norm`` of a 1-D vector sums through ``dot`` and
    can differ). When the square underflows or overflows, ``v`` is first
    divided by its largest magnitude.
    """
    with np.errstate(over="ignore"):
        sq = np.add.reduce(v * v)
    if _TINY <= sq < np.inf:
        return v / np.sqrt(sq)
    scale = np.abs(v).max()
    if scale == 0.0:
        raise ZeroVectorError("zero-norm vector has no direction")
    w = v / scale
    return w / np.sqrt(np.add.reduce(w * w))


@dataclass(frozen=True, eq=False)
class SimilarityDistributions:
    """Auto (same-identity) and cross (different-identity) best-similarity samples.

    Two distributions are equal when their gallery versions are equal and
    both sample arrays hold the same values in the same order.
    """

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityDistributions):
            return NotImplemented
        return (
            self.gallery_version == other.gallery_version
            and np.array_equal(self.auto_samples, other.auto_samples)
            and np.array_equal(self.cross_samples, other.cross_samples)
        )


def _pairs_from_identities(
    unit: np.ndarray, spans: list[tuple[int, int]]
) -> tuple[list[float], list[float]]:
    """Best similarity within each identity holding two or more rows (auto)
    and between each unordered pair of identities (cross), in span order.

    ``unit`` holds unit rows grouped by identity; ``spans`` gives each
    identity's ``(lo, hi)`` row range.
    """
    gram = unit @ unit.T
    np.clip(gram, -1.0, 1.0, out=gram)
    auto: list[float] = []
    cross: list[float] = []
    for lo, hi in spans:
        k = hi - lo
        if k >= 2:
            # pairing an instance with itself always scores 1.0; only
            # distinct-instance pairs carry information
            auto.append(float(gram[lo:hi, lo:hi][~np.eye(k, dtype=bool)].max()))
    for i, (lo_i, hi_i) in enumerate(spans):
        for lo_j, hi_j in spans[i + 1 :]:
            cross.append(float(gram[lo_i:hi_i, lo_j:hi_j].max()))
    return auto, cross


def build_distributions(gallery: "Gallery") -> SimilarityDistributions:
    """Collect the per-pair best similarities into auto and cross sample sets.

    Pairs come in sorted-label order, so repeated calls on the same gallery
    version give element-wise identical samples. Identities with a single
    embedding contribute no auto sample. An empty auto side is returned
    as-is (and logged); callers that need Gaussian estimates should check
    ``estimable`` first.
    """
    version, rows, labels = gallery.unit_rows()
    # a stable sort keeps each identity's rows in registration order
    order = sorted(range(len(labels)), key=labels.__getitem__)
    spans = []
    lo = 0
    for _, group in groupby(order, key=labels.__getitem__):
        hi = lo + sum(1 for _ in group)
        spans.append((lo, hi))
        lo = hi
    if len(spans) < 2:
        raise InputContractError("need at least 2 identities to form cross pairs")
    auto, cross = _pairs_from_identities(rows[order], spans)
    if not auto:
        logger.warning(
            "no identity has two or more embeddings: auto distribution is empty"
        )
    return SimilarityDistributions(auto, cross, version)
