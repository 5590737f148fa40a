"""Unit vectors and the auto/cross similarity distributions of a gallery."""

from __future__ import annotations

import logging
from dataclasses import dataclass
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

    Each side is held once, sorted and read-only: sample order carries no
    meaning. Two distributions are equal when their gallery versions are
    equal and both sides hold the same values.
    """

    auto_samples: np.ndarray
    cross_samples: np.ndarray
    gallery_version: int = 0

    def __post_init__(self):
        for name in ("auto_samples", "cross_samples"):
            side = np.asarray(getattr(self, name), dtype=np.float64)
            if side.ndim != 1 or not np.isfinite(side).all():
                raise InputContractError(f"{name} must be a flat array of finite values")
            side = np.sort(side)
            side.flags.writeable = False
            object.__setattr__(self, name, side)

    @property
    def estimable(self) -> bool:
        """True when both sides have enough samples (>= 2) to fit a Gaussian."""
        return self.auto_samples.size >= 2 and self.cross_samples.size >= 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityDistributions):
            return NotImplemented
        return (
            self.gallery_version == other.gallery_version
            and np.array_equal(self.auto_samples, other.auto_samples)
            and np.array_equal(self.cross_samples, other.cross_samples)
        )


# Row budget of one band in ``_pairs_from_identities``: a band's working
# memory is this many rows times the gallery size, in place of the full Gram.
_BAND_ROWS = 256


def _pairs_from_identities(
    unit: np.ndarray, spans: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Best similarity within each identity holding two or more rows (auto)
    and between each unordered pair of identities (cross).

    ``unit`` holds unit rows grouped by identity; ``spans`` gives each
    identity's ``(lo, hi)`` row range. The similarities are computed in row
    bands of whole identities, at most ``_BAND_ROWS`` rows each unless one
    identity alone is larger. A band is paired only with the rows from its
    own start onward, which hold every pair its identities still need.
    """
    n = len(spans)
    auto = np.empty(sum(1 for lo, hi in spans if hi - lo >= 2))
    cross = np.empty(n * (n - 1) // 2)
    a = c = 0
    i = 0
    while i < n:
        b_lo = spans[i][0]
        j = i + 1
        while j < n and spans[j][1] - b_lo <= _BAND_ROWS:
            j += 1
        band = unit[b_lo : spans[j - 1][1]] @ unit[b_lo:].T
        np.clip(band, -1.0, 1.0, out=band)
        rel = [(lo - b_lo, hi - b_lo) for lo, hi in spans[i:]]
        for k, (lo, hi) in enumerate(rel[: j - i]):
            rows = band[lo:hi]
            if hi - lo >= 2:
                # pairing an instance with itself always scores 1.0; only
                # distinct-instance pairs carry information
                auto[a] = rows[:, lo:hi][~np.eye(hi - lo, dtype=bool)].max()
                a += 1
            for lo_j, hi_j in rel[k + 1 :]:
                cross[c] = rows[:, lo_j:hi_j].max()
                c += 1
        # free this band before the next one is computed
        del band, rows
        i = j
    return auto, cross


def build_distributions(gallery: "Gallery") -> SimilarityDistributions:
    """Collect the per-pair best similarities into auto and cross sample sets.

    Each side comes back sorted, so its order says nothing about which pair
    gave a sample. Identities with a single embedding contribute no auto
    sample. An empty auto side is returned as-is (and logged); callers that
    need Gaussian estimates should check ``estimable`` first.
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
    if not auto.size:
        logger.warning(
            "no identity has two or more embeddings: auto distribution is empty"
        )
    return SimilarityDistributions(auto, cross, version)
