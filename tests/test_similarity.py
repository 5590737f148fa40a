import math
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adathresh import (
    Gallery,
    InputContractError,
    SimilarityDistributions,
    ZeroVectorError,
    adapt,
    build_distributions,
    optimize_f1,
)
from adathresh import similarity, stats
from adathresh.similarity import unit_rows, unit_vector
from conftest import large_sweep_samples, naive_distributions


class TestUnitVector:
    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            unit_vector(np.zeros(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.standard_normal(5)
            alpha = float(rng.uniform(0.01, 100.0))
            np.testing.assert_allclose(
                unit_vector(alpha * x), unit_vector(x), rtol=0, atol=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.builds(lambda m, e: m * 2.0**e, st.floats(-1, 1), st.integers(-1074, 1023)),
                min_size=3,
                max_size=3,
            ).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    def test_rows_get_the_bits_of_the_two_branch_formula(self, vectors):
        block = np.array(vectors)
        for got, v in zip(unit_rows(block), block):
            with np.errstate(over="ignore"):
                sq = np.add.reduce(v * v)
            if not np.finfo(np.float64).tiny <= sq < math.inf:
                # a square that underflows or overflows: scale by the largest
                # magnitude first
                v = v / np.abs(v).max()
                sq = np.add.reduce(v * v)
            assert got.tobytes() == (v / np.sqrt(sq)).tobytes()

    @pytest.mark.parametrize(
        "row, error",
        [
            ([1.0, math.nan], InputContractError),
            ([math.inf, 0.0], InputContractError),
            ([0.0, -0.0], ZeroVectorError),
        ],
    )
    def test_a_bad_row_raises_alone_or_in_a_block(self, row, error):
        block = np.array([[1.0, 2.0], row, [1e-300, 0.0]])
        for call in (lambda: unit_rows(block), lambda: unit_vector(np.array(row))):
            with pytest.raises(InputContractError) as info:
                call()
            assert type(info.value) is error


class TestBuildDistributions:
    def test_two_singletons_orthogonal(self):
        g = Gallery(2)
        g.register("a", [1, 0])
        g.register("b", [0, 1])
        dist = build_distributions(g)
        assert dist.auto_samples.tolist() == []
        assert dist.cross_samples.tolist() == [0.0]
        assert not dist.estimable

    def test_duplicate_instances_kept(self):
        # two distinct instances with equal coordinates still form an auto pair
        g = Gallery(2)
        g.register("a", [1, 0])
        g.register("a", [1, 0])
        g.register("b", [0, 1])
        dist = build_distributions(g)
        assert dist.auto_samples.tolist() == [1.0]
        assert dist.cross_samples.tolist() == [0.0]

    def test_self_pair_excluded(self):
        # a single embedding never pairs with itself, so no auto sample
        g = Gallery(2)
        g.register("a", [1, 0])
        g.register("b", [1, 1])
        dist = build_distributions(g)
        assert dist.auto_samples.size == 0

    def test_three_by_two_counts(self):
        g = Gallery(3)
        rng = np.random.default_rng(3)
        for label in ("a", "b", "c"):
            for _ in range(2):
                g.register(label, rng.standard_normal(3))
        dist = build_distributions(g)
        assert dist.auto_samples.size == 3
        assert dist.cross_samples.size == 3  # C(3, 2)

    def test_counts_invariant(self, make_gallery):
        g = make_gallery(num_identities=5, per_identity=3, seed=21)
        g.register("solo", np.ones(16))
        dist = build_distributions(g)
        assert dist.auto_samples.size == 5  # 'solo' has one embedding
        assert dist.cross_samples.size == 6 * 5 // 2

    def test_matches_brute_force(self, make_gallery):
        g = make_gallery(num_identities=4, per_identity=3, within=0.5, seed=33)
        dist = build_distributions(g)
        auto, cross = naive_distributions(g)
        assert dist.auto_samples == pytest.approx(sorted(auto), abs=1e-12)
        assert dist.cross_samples == pytest.approx(sorted(cross), abs=1e-12)

    def test_reproducible(self, make_gallery):
        g = make_gallery(seed=5)
        d1 = build_distributions(g)
        d2 = build_distributions(g)
        assert d1.gallery_version == d2.gallery_version == g.change_counter
        assert np.array_equal(d1.auto_samples, d2.auto_samples)
        assert np.array_equal(d1.cross_samples, d2.cross_samples)

    def test_samples_in_range(self, make_gallery):
        g = make_gallery(num_identities=6, per_identity=4, within=1.5, seed=12)
        dist = build_distributions(g)
        for s in np.concatenate([dist.auto_samples, dist.cross_samples]):
            assert -1.0 <= s <= 1.0

    def test_fewer_than_two_identities(self):
        g = Gallery(2)
        g.register("a", [1, 0])
        with pytest.raises(InputContractError):
            build_distributions(g)

    def test_flags_empty_auto(self, caplog):
        g = Gallery(2)
        g.register("a", [1, 0])
        g.register("b", [0, 1])
        with caplog.at_level("WARNING"):
            dist = build_distributions(g)
        assert dist.auto_samples.size == 0
        assert any("auto" in r.message for r in caplog.records)

    def test_extreme_magnitudes(self):
        # squared norms that underflow or overflow still give unit rows
        g = Gallery(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g.register("a", [1e-300, 0.0])
            g.register("a", [1e-300, 1e-300])
            g.register("b", [1e308, 1e308])
            dist = build_distributions(g)
        assert dist.auto_samples == pytest.approx([math.sqrt(0.5)], abs=1e-12)
        assert dist.cross_samples == pytest.approx([1.0], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    band_rows=st.sampled_from([1, 2, 3, 7]),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_build_matches_brute_force(band_rows, sizes, seed):
    # bands end on every identity boundary, and identities larger than the
    # band budget each get a band to themselves
    rng = np.random.default_rng(seed)
    labels = [f"id{i}" for i, k in enumerate(sizes) for _ in range(k)]
    g = Gallery(4)
    for i in rng.permutation(len(labels)):
        g.register(labels[i], rng.standard_normal(4))
    with mock.patch.object(similarity, "_TILE", band_rows):
        dist = build_distributions(g)
    auto, cross = naive_distributions(g)
    assert dist.auto_samples == pytest.approx(sorted(auto), abs=1e-12)
    assert dist.cross_samples == pytest.approx(sorted(cross), abs=1e-12)


def sized_rows(sizes, dim=8, seed=0):
    """Labels and raw rows: identity ``f"id{i:04d}"`` holds ``sizes[i]``
    rows around a center of its own, in label order."""
    rng = np.random.default_rng(seed)
    labels = [f"id{i:04d}" for i, k in enumerate(sizes) for _ in range(k)]
    centers = rng.standard_normal((len(sizes), dim))
    block = np.repeat(centers, sizes, axis=0) + 0.5 * rng.standard_normal((len(labels), dim))
    return labels, block, rng


def sized_gallery(sizes, dim=8, seed=0, shuffle=False) -> Gallery:
    """The rows of :func:`sized_rows`, registered in label order, or in a
    random order when ``shuffle``."""
    labels, block, rng = sized_rows(sizes, dim, seed)
    order = rng.permutation(len(labels)) if shuffle else np.arange(len(labels))
    g = Gallery(dim)
    g.register_rows([labels[k] for k in order], block[order])
    return g


def spans_of(sizes) -> list[tuple[int, int]]:
    bounds = np.cumsum([0, *sizes]).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def build_reading(g):
    """``build_distributions(g)``, and the unit rows and the row order its
    kernel was given."""
    given, real = [], similarity._pairs_from_identities

    def spy(unit, order, spans):
        given.append((unit, order))
        return real(unit, order, spans)

    with mock.patch.object(similarity, "_pairs_from_identities", spy):
        dist = build_distributions(g)
    return dist, *given[0]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=10),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_kernel_gathers_from_the_gallerys_own_rows(sizes, shuffle, seed):
    g = sized_gallery(sizes, seed=seed, shuffle=shuffle)
    _, rows, labels = g.unit_rows()
    dist, read, order = build_reading(g)
    # no copy of the rows, in label order or not: each band is gathered
    assert np.shares_memory(read, rows)
    # a stable sort keeps each identity's rows in registration order, and a
    # stable sort by size packs the identities largest first
    ranked = sorted(range(len(labels)), key=labels.__getitem__)
    size = Counter(labels)
    packed = sorted(ranked, key=lambda r: -size[labels[r]])
    assert order.dtype == np.intp and order.tolist() == packed
    auto, cross = per_pair_reference(rows[ranked], spans_of(sizes))
    assert dist.auto_samples.tobytes() == sorted_values(auto).tobytes()
    assert dist.cross_samples.tobytes() == sorted_values(cross).tobytes()


def per_pair_reference(unit, spans):
    """The kernel with one Python iteration per identity pair, one-row
    identities included, over the same bands and zero-padded tiles: the auto
    sample of each identity of two or more rows, by identity, and the cross
    sample of each pair ``(k, l)``, ``k < l``, each with the bits of the
    block maximum it stands for."""
    n = len(spans)

    def padded(lo, hi):
        block = unit[lo:hi]
        return np.concatenate([block, np.zeros((-len(block) % similarity._TILE, block.shape[1]))])

    bands = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and spans[j][1] - spans[i][0] <= similarity._TILE:
            j += 1
        bands.append((i, j))
        i = j
    auto, cross = {}, {}
    for p, (i, j) in enumerate(bands):
        r_lo = spans[i][0]
        for i_col, j_col in bands[p:]:
            c_lo = spans[i_col][0]
            # two distinct buffers, on the diagonal tile too
            tile = padded(r_lo, spans[j - 1][1]) @ padded(c_lo, spans[j_col - 1][1]).T
            np.clip(tile, -1.0, 1.0, out=tile)
            for k in range(i, j):
                lo, hi = spans[k][0] - r_lo, spans[k][1] - r_lo
                if i_col == i and hi - lo >= 2:
                    block = tile[lo:hi, lo:hi].copy()
                    np.fill_diagonal(block, -np.inf)
                    auto[k] = block.max()
                for m in range(max(k + 1, i_col), j_col):
                    cross[k, m] = tile[lo:hi, spans[m][0] - c_lo : spans[m][1] - c_lo].max()
    return auto, cross


def sorted_values(samples: dict) -> np.ndarray:
    return np.sort(np.array(list(samples.values()), dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=24).filter(
        lambda sizes: min(sizes) == 1 < max(sizes)
    ),
    band_rows=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
# every one-row identity sorts before every larger one in label order
@example(sizes=[1] * 7 + [2, 5, 3, 4, 2], band_rows=4, seed=1)
# an identity larger than a band sits between one-row identities
@example(sizes=[1, 1, 1, 7, 1, 1, 2, 1], band_rows=4, seed=2)
def test_one_row_identities_keep_the_per_pair_bits(sizes, band_rows, seed):
    # in label order, one-row identities sort before, between and after
    # larger ones; packed largest first, they fill the last bands, and the
    # band where the larger ones end can hold both kinds
    g = sized_gallery(sizes, seed=seed, shuffle=True)
    _, rows, labels = g.unit_rows()
    order = sorted(range(len(labels)), key=labels.__getitem__)
    with mock.patch.object(similarity, "_TILE", band_rows):
        dist = build_distributions(g)
        auto, cross = per_pair_reference(rows[order], spans_of(sizes))
    assert dist.auto_samples.tobytes() == sorted_values(auto).tobytes()
    assert dist.cross_samples.tobytes() == sorted_values(cross).tobytes()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(100, 130),
    dim=st.sampled_from([32, 128]),
    drop=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_sample_moves_with_row_order_or_band_packing(n, dim, drop, seed):
    # 100-130 identities of 1-5 rows fill two or more bands of 256 rows
    sizes = np.random.default_rng(seed).integers(1, 6, n).tolist()
    assume(sum(sizes) > similarity._TILE)
    in_order = sized_gallery(sizes, dim=dim, seed=seed)
    dist = build_distributions(in_order)
    _, rows, _ = in_order.unit_rows()
    auto, cross = per_pair_reference(rows, spans_of(sizes))
    assert dist.auto_samples.tobytes() == sorted_values(auto).tobytes()
    assert dist.cross_samples.tobytes() == sorted_values(cross).tobytes()
    # registered in a random order: each identity's rows sit permuted
    permuted = build_distributions(sized_gallery(sizes, dim=dim, seed=seed, shuffle=True))
    assert permuted.auto_samples.tobytes() == dist.auto_samples.tobytes()
    assert permuted.cross_samples.tobytes() == dist.cross_samples.tobytes()
    # without the first identities every band is packed anew, and each
    # remaining pair keeps its sample
    labels, block, _ = sized_rows(sizes, dim, seed)
    cut = sum(sizes[:drop])
    rest = Gallery(dim)
    rest.register_rows(labels[cut:], block[cut:])
    kept = build_distributions(rest)
    kept_auto = {k: v for k, v in auto.items() if k >= drop}
    kept_cross = {kl: v for kl, v in cross.items() if kl[0] >= drop}
    assert kept.auto_samples.tobytes() == sorted_values(kept_auto).tobytes()
    assert kept.cross_samples.tobytes() == sorted_values(kept_cross).tobytes()


def test_identities_above_a_band_are_packed_first():
    # four identities of 300 rows, each between groups of 1-5-row ones: in
    # label order they would cut the small ones into five short bands
    rng = np.random.default_rng(4)
    sizes = []
    for _ in range(4):
        sizes += [*rng.integers(1, 6, 12).tolist(), 300]
    sizes += rng.integers(1, 6, 12).tolist()
    g = sized_gallery(sizes, dim=16, seed=4, shuffle=True)
    calls, real = [], similarity._zero_padded

    def spy(buf, unit, idx):
        calls.append(len(idx))
        return real(buf, unit, idx)

    with mock.patch.object(similarity, "_zero_padded", spy):
        dist = build_distributions(g)
    # each large one is a band of its own and the small identities fill one
    # band after them: five row bands and 15 tiles, so 20 bands copied (the
    # small band once as rows and against all five), against nine row bands,
    # 45 tiles and 54 copies in label order
    small = sum(k for k in sizes if k < 300)
    assert small <= similarity._TILE
    assert sorted(calls) == [small] * 6 + [300] * 14
    _, rows, labels = g.unit_rows()
    ranked = sorted(range(len(labels)), key=labels.__getitem__)
    auto, cross = per_pair_reference(rows[ranked], spans_of(sizes))
    assert dist.auto_samples.tobytes() == sorted_values(auto).tobytes()
    assert dist.cross_samples.tobytes() == sorted_values(cross).tobytes()


def test_built_sides_are_held_without_a_copy(make_gallery):
    g = make_gallery(num_identities=5, per_identity=3, seed=4)
    dist = build_distributions(g)
    for side in (dist.auto_samples, dist.cross_samples):
        # the kernel's own arrays, sorted in place: no sorted copy
        assert side.flags.owndata and not side.flags.writeable
    kept = SimilarityDistributions(dist.auto_samples, dist.cross_samples)
    assert kept.auto_samples is dist.auto_samples
    assert kept.cross_samples is dist.cross_samples


def test_adapt_holds_one_tile_and_one_copy_of_the_samples():
    # long-tailed like LFW: mostly singletons, a few identities far above a
    # tile's row count. Tiles of 16 rows keep the tile, not the samples,
    # small, as at LFW's scale. The largest identity sorts first, so the
    # largest tile is its 70 rows, padded to 80, against themselves. The
    # Gaussian fit then holds one leaf of deviations, and the f1 sweep a few
    # arrays of the auto side's candidates.
    rng = np.random.default_rng(3)
    rest = [2] * 60 + [3] * 30 + [6] * 20 + [15] * 6 + [40] * 3 + [1] * 400
    sizes = [70, *rng.permutation(rest).tolist()]
    g = sized_gallery(sizes, dim=16, seed=3)
    with mock.patch.object(similarity, "_TILE", 16):
        adapt(g)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            adapt(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    tile = 80 * 80 * 8
    auto = sum(1 for k in sizes if k >= 2)
    sweep = 16 * (auto + 2) * 8
    fit = stats._VAR_LEAF * 8
    cross = len(sizes) * (len(sizes) - 1) // 2
    samples = (auto + cross) * 8
    # a second copy of the samples, even without the tile, would not fit
    assert 2 * samples > max(tile, sweep, fit) + 1.1 * samples
    assert peak <= max(tile, sweep, fit) + 1.1 * samples


def test_build_memory_is_a_fraction_of_the_gram(make_gallery):
    g = make_gallery(num_identities=500, per_identity=4, dim=8, seed=2)
    build_distributions(g)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        build_distributions(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gram_bytes = 2000 * 2000 * 8
    assert peak < gram_bytes / 3


def test_build_memory_is_the_samples_and_a_few_tiles():
    # a band of 256 rows against all 2,000 rows would take 3.9 MiB, and a
    # copy of the rows in label order 2 MiB: each band is gathered from the
    # gallery's rows, registered in label order or shuffled
    samples = (500 + 500 * 499 // 2) * 8
    tile = similarity._TILE * similarity._TILE * 8
    for shuffle in (False, True):
        g = sized_gallery([4] * 500, dim=128, seed=2, shuffle=shuffle)
        build_distributions(g)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            build_distributions(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= samples + 4 * tile, f"shuffled={shuffle}"


def test_sweep_memory_is_a_few_sample_arrays():
    # the sweep scores the bounds and the auto side's in-bound values, so it
    # holds a few arrays of the auto side's length, not of the samples'
    auto, cross = large_sweep_samples()
    dist = SimilarityDistributions(auto, cross)
    optimize_f1(dist)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        optimize_f1(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * (auto.size + 2) * 8


class TestSimilarityDistributionsEquality:
    def test_compares_by_value(self):
        d = SimilarityDistributions([0.3, 0.1], [0.5, 0.2], 4)
        same = SimilarityDistributions(np.array([0.3, 0.1]), [0.5, 0.2], 4)
        assert (d == same) is True
        assert (d != same) is False
        assert d == SimilarityDistributions([0.1, 0.3], [0.2, 0.5], 4)  # order does not
        assert d != SimilarityDistributions([0.3, 0.1], [0.5, 0.2, 0.0], 4)
        assert d != SimilarityDistributions([0.3, 0.1], [0.5, 0.2], 5)
        assert d != (d.auto_samples, d.cross_samples, 4)

    def test_rebuild_equals(self, make_gallery):
        g = make_gallery(seed=6)
        assert build_distributions(g) == build_distributions(g)

    def test_sides_held_sorted_and_read_only(self):
        auto = np.array([0.3, 0.1, 0.2])
        d = SimilarityDistributions(auto, [0.5, -0.2])
        assert d.auto_samples.tolist() == [0.1, 0.2, 0.3]
        assert d.cross_samples.tolist() == [-0.2, 0.5]
        assert auto.tolist() == [0.3, 0.1, 0.2]  # the caller's array is not touched
        with pytest.raises(ValueError):
            d.auto_samples[0] = 0.9

    @staticmethod
    def frozen(values, dtype=np.float64):
        side = np.array(values, dtype=dtype)
        side.flags.writeable = False
        return side

    def test_only_a_frozen_ascending_float64_array_is_kept(self):
        kept = self.frozen([0.1, 0.2, 0.2, 0.3])
        assert SimilarityDistributions(kept, [0.5]).auto_samples is kept
        owner = np.array([0.1, 0.2, 0.3])
        for side in (
            np.array([0.1, 0.2, 0.3]),  # writeable
            self.frozen([0.3, 0.1, 0.2]),  # not ascending
            self.frozen([0.1, 0.2, 0.3], np.float32),
            self.frozen(owner)[1:],  # a view: another array owns the data
        ):
            d = SimilarityDistributions(side, [0.5])
            assert d.auto_samples is not side
            assert d.auto_samples.tolist() == sorted(side.tolist())
            assert not d.auto_samples.flags.writeable
        assert owner.flags.writeable

    @pytest.mark.parametrize(
        "side", [[-math.inf, 0.1], [0.1, math.inf], [math.inf], [0.1, math.nan]]
    )
    def test_a_frozen_side_is_checked_for_finite_values(self, side):
        with pytest.raises(InputContractError):
            SimilarityDistributions(self.frozen(side), [0.5])

    @pytest.mark.parametrize(
        "auto, cross",
        [
            ([0.9, math.nan, 0.8], [0.1, 0.2, 0.3]),
            ([0.9, 0.8], [0.1, math.inf]),
            ([0.9, -math.inf], [0.1, 0.2]),
            ([[0.9, 0.8], [0.7, 0.6]], [0.1, 0.2]),
            ([0.9, 0.8], 0.1),
        ],
    )
    def test_rejects_non_finite_or_non_flat_samples(self, auto, cross):
        with pytest.raises(InputContractError):
            SimilarityDistributions(auto, cross)
