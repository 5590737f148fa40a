import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adathresh import (
    Gallery,
    InputContractError,
    SimilarityDistributions,
    ZeroVectorError,
    build_distributions,
    optimize_f1,
)
from adathresh import similarity
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
    with mock.patch.object(similarity, "_BAND_ROWS", band_rows):
        dist = build_distributions(g)
    auto, cross = naive_distributions(g)
    assert dist.auto_samples == pytest.approx(sorted(auto), abs=1e-12)
    assert dist.cross_samples == pytest.approx(sorted(cross), abs=1e-12)


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


def test_sweep_memory_is_a_few_sample_arrays():
    # scoring every candidate in one rates_at call peaks at about 15 sample
    # arrays; in chunks, the merge into distinct values (about 2) dominates
    auto, cross = large_sweep_samples()
    dist = SimilarityDistributions(auto, cross)
    optimize_f1(dist)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        optimize_f1(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * (auto.size + cross.size) * 8


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
