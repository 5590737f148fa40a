"""Unit vectors and the auto/cross similarity distributions of a gallery."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputContractError, ZeroVectorError

if TYPE_CHECKING:
    from .gallery import Gallery

logger = logging.getLogger(__name__)

_TINY = np.finfo(np.float64).tiny


def unit_rows(block: np.ndarray) -> np.ndarray:
    """Each row of the 2-D float64 ``block`` scaled to norm 1.

    A row with a non-finite value raises :class:`InputContractError`, an
    all-zero row :class:`ZeroVectorError`; any other row is accepted, however
    small or large its magnitude. Where a row's squared norm is a normal
    float, which proves the row finite and non-zero, its unit row is
    ``row / sqrt(sum(row * row))``. Where the square underflows or overflows,
    the row is first divided by its largest magnitude.
    """
    with np.errstate(over="ignore"):
        sq = np.add.reduce(block * block, axis=1)
    # a Python loop over the squares: numpy's masks cost more on a short block
    if all(_TINY <= s < np.inf for s in sq.tolist()):
        return block / np.sqrt(sq)[:, None]
    abnormal = ~((_TINY <= sq) & (sq < np.inf))
    rest = block[abnormal]
    if not np.isfinite(rest).all():
        raise InputContractError("vector contains non-finite values")
    scale = np.abs(rest).max(axis=1)
    if not scale.all():
        raise ZeroVectorError("zero vectors cannot be stored")
    sq[abnormal] = 1.0  # a stand-in: these rows are set below
    unit = block / np.sqrt(sq)[:, None]
    w = rest / scale[:, None]
    unit[abnormal] = w / np.sqrt(np.add.reduce(w * w, axis=1))[:, None]
    return unit


def unit_vector(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to norm 1: the 1-D case of :func:`unit_rows`, with the
    same checks and the same bits as that row in any block.

    The squared norm is computed once; a normal value is divided out
    straight away, and only a vector whose square is not a normal float
    goes through :func:`unit_rows`. (``np.linalg.norm`` of a 1-D vector sums
    through ``dot`` and can differ from a row of a block in its last bit.)
    """
    with np.errstate(over="ignore"):
        sq = np.add.reduce(v * v)
    if _TINY <= sq < np.inf:
        return v / np.sqrt(sq)
    return unit_rows(v[None])[0]


def _held_as_is(side) -> bool:
    """True for a side kept without a copy: a 1-D, read-only, ascending
    float64 array of finite values that owns its data, such as the ones
    :func:`build_distributions` hands over. Any other side is copied, so a
    caller's array is never sorted or frozen in place."""
    return (
        isinstance(side, np.ndarray)
        and side.dtype == np.float64
        and side.ndim == 1
        and side.flags.owndata
        and not side.flags.writeable
        # ascending fails on any NaN, so only the ends can be infinite
        and bool((side[:-1] <= side[1:]).all())
        and (not side.size or bool(np.isfinite(side[[0, -1]]).all()))
    )


@dataclass(frozen=True, eq=False)
class SimilarityDistributions:
    """Auto (same-identity) and cross (different-identity) best-similarity samples.

    Each side is held once, sorted and read-only: sample order carries no
    meaning. A side that is already so is kept as it is, and any other side
    is sorted into a copy. Two distributions are equal when their gallery
    versions are equal and both sides hold the same values.
    """

    auto_samples: np.ndarray
    cross_samples: np.ndarray
    gallery_version: int = 0

    def __post_init__(self):
        for name in ("auto_samples", "cross_samples"):
            side = getattr(self, name)
            if not _held_as_is(side):
                side = np.asarray(side, dtype=np.float64)
                if side.ndim != 1 or not np.isfinite(side).all():
                    raise InputContractError(
                        f"{name} must be a flat array of finite values"
                    )
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


# Row count of one side of a tile in ``_pairs_from_identities``: every
# product is one gemm of two zero-padded buffers whose row counts are
# multiples of it, so a tile is _TILE x _TILE floats unless one identity
# alone holds more rows.
_TILE = 256


def _zero_padded(buf: np.ndarray, unit: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``unit[idx]`` copied into the top rows of ``buf``, followed by zero
    rows up to the next multiple of ``_TILE``: a view of ``buf``. ``idx`` is
    in range; ``mode="clip"`` lets ``np.take`` write into ``buf`` unbuffered."""
    padded = buf[: -(-len(idx) // _TILE) * _TILE]
    np.take(unit, idx, axis=0, out=padded[: len(idx)], mode="clip")
    padded[len(idx) :] = 0.0
    return padded


def _pairs_from_identities(
    unit: np.ndarray, order: np.ndarray, spans: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Best similarity within each identity holding two or more rows (auto)
    and between each unordered pair of identities (cross).

    ``order`` lists the rows of ``unit`` grouped by identity, largest
    identity first, and ``spans`` gives each identity's ``(lo, hi)`` range of
    positions in ``order``. The rows are cut into bands of whole identities,
    at most ``_TILE`` rows each unless one identity alone holds more, and
    each band is paired with itself and with every later band. Both bands
    of a pair are gathered from ``unit`` into two distinct zero-padded
    buffers whose row counts are multiples of ``_TILE``, and one gemm of the
    two gives the pair's tile. Working memory is one tile and the two
    buffers, however many rows the gallery holds.

    Every product has a padded shape, whatever its rows and wherever they
    sit, so a sample's bits depend only on the rows of its own identities:
    permuting the rows within an identity, or adding or dropping other
    identities (which re-packs the bands), moves no sample. Two distinct
    buffers keep the diagonal tile off ``syrk``, and the padding keeps a
    small product off BLAS's small-matrix kernels; either would give the
    same pair other bits in another tile.

    So the identities of two or more rows are ``[0, multi)`` and the
    one-row ones follow. In each tile, an identity's later identities of two
    or more rows are paired one at a time; its later one-row identities, a
    run of one column each at the end of the tile, get their cross samples
    from one column maximum of its rows. A maximum is exact, so each sample
    has the bits of the block maximum it stands for. The samples come in
    tile order, not pair order.
    """
    n = len(spans)
    multi = sum(hi - lo >= 2 for lo, hi in spans)
    bands = []  # each band's identities, as a range [i, j)
    i = 0
    while i < n:
        j = i + 1
        while j < n and spans[j][1] - spans[i][0] <= _TILE:
            j += 1
        bands.append((i, j))
        i = j
    width = max(spans[j - 1][1] - spans[i][0] for i, j in bands)
    row_buf = np.empty((-(-width // _TILE) * _TILE, unit.shape[1]))
    col_buf = np.empty_like(row_buf)
    auto = np.empty(multi)
    cross = np.empty(n * (n - 1) // 2)
    c = 0
    for p, (i, j) in enumerate(bands):
        r_lo = spans[i][0]
        row_block = _zero_padded(row_buf, unit, order[r_lo : spans[j - 1][1]])
        for i_col, j_col in bands[p:]:
            c_lo, c_hi = spans[i_col][0], spans[j_col - 1][1]
            tile = row_block @ _zero_padded(col_buf, unit, order[c_lo:c_hi]).T
            # only the rows' own products are read: the padding stays unclipped
            real = tile[: spans[j - 1][1] - r_lo, : c_hi - c_lo]
            np.clip(real, -1.0, 1.0, out=real)
            for k in range(i, j):
                lo, hi = spans[k][0] - r_lo, spans[k][1] - r_lo
                rows = tile[lo:hi]
                if i_col == i and k < multi:
                    # pairing an instance with itself always scores 1.0; only
                    # distinct-instance pairs carry information, so the self
                    # pairs are masked in place (no other pair reads them)
                    self_pairs = np.arange(lo, hi)
                    tile[self_pairs, self_pairs] = -np.inf
                    auto[k] = rows[:, lo:hi].max()
                # this tile's identities after k: [after, split) of two or
                # more rows, then [split, j_col) of one row each
                after = max(k + 1, i_col)
                split = max(after, min(multi, j_col))
                for lo_m, hi_m in spans[after:split]:
                    cross[c] = rows[:, lo_m - c_lo : hi_m - c_lo].max()
                    c += 1
                if split < j_col:
                    first = spans[split][0] - c_lo
                    np.max(rows[:, first : c_hi - c_lo], axis=0, out=cross[c : c + j_col - split])
                    c += j_col - split
            # free this tile before the next one is computed
            del tile, real, rows
    return auto, cross


def _spans(sizes) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` ranges of consecutive runs of ``sizes`` rows."""
    bounds = list(accumulate(sizes, initial=0))
    return list(zip(bounds, bounds[1:]))


def build_distributions(gallery: "Gallery") -> SimilarityDistributions:
    """Collect the per-pair best similarities into auto and cross sample sets.

    Each side comes back sorted, so its order says nothing about which pair
    gave a sample. Identities with a single embedding contribute no auto
    sample. An empty auto side is returned as-is (and logged); callers that
    need Gaussian estimates should check ``estimable`` first.
    """
    version, unit, labels = gallery.unit_rows()
    # a stable sort keeps each identity's rows in registration order
    ranked = sorted(range(len(labels)), key=labels.__getitem__)
    sizes = [sum(1 for _ in group) for _, group in groupby(map(labels.__getitem__, ranked))]
    if len(sizes) < 2:
        raise InputContractError("need at least 2 identities to form cross pairs")
    # identities largest first, in label order among equal sizes: an identity
    # of more than _TILE rows, a band of its own, cuts no run of smaller
    # identities into short bands, and the one-row identities come last
    by_size = np.argsort(-np.repeat(sizes, sizes), kind="stable")
    order = np.array(ranked, dtype=np.intp)[by_size]
    auto, cross = _pairs_from_identities(unit, order, _spans(sorted(sizes, reverse=True)))
    if not auto.size:
        logger.warning(
            "no identity has two or more embeddings: auto distribution is empty"
        )
    for side in (auto, cross):
        side.sort()
        side.flags.writeable = False
    return SimilarityDistributions(auto, cross, version)
