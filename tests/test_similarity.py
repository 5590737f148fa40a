import math
import warnings

import numpy as np
import pytest

from adathresh import (
    DimensionMismatchError,
    Gallery,
    InputContractError,
    SimilarityDistributions,
    ZeroVectorError,
    build_distributions,
    cosine_distance,
    cosine_similarity,
    euclidean_distance,
)
from conftest import naive_distributions


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_45_degrees(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-15
        )

    def test_opposite(self):
        assert cosine_similarity([1, 0], [-1, 0]) == -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert cosine_similarity(x, y) == cosine_similarity(y, x)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            alpha = float(rng.uniform(0.01, 100.0))
            assert cosine_similarity(alpha * x, y) == pytest.approx(
                cosine_similarity(x, y), abs=1e-12
            )

    def test_result_clamped(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.standard_normal(3)
            y = x * float(rng.uniform(0.5, 2.0))
            assert -1.0 <= cosine_similarity(x, y) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity([1, 0], [1, 0, 0])


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance([2, 3], [2, 3]) == 0.0

    def test_orthogonal(self):
        assert cosine_distance([1, 0], [0, 1]) == 1.0

    def test_antipodal(self):
        assert cosine_distance([1, 0], [-1, 0]) == 2.0

    def test_complement_of_similarity(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert cosine_distance(x, y) == 1.0 - cosine_similarity(x, y)


class TestEuclideanDistance:
    def test_same_point(self):
        assert euclidean_distance([1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_3_4_5_triangle(self):
        assert euclidean_distance([0, 0], [3, 4]) == 5.0

    def test_one_dimensional(self):
        assert euclidean_distance([1], [-1]) == 2.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert euclidean_distance(x, y) == euclidean_distance(y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            euclidean_distance([1, 2], [1, 2, 3])


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
        assert dist.auto_samples == pytest.approx(auto, abs=1e-12)
        assert dist.cross_samples == pytest.approx(cross, abs=1e-12)

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


class TestSimilarityDistributionsEquality:
    def test_compares_by_value(self):
        d = SimilarityDistributions([0.3, 0.1], [0.5, 0.2], 4)
        same = SimilarityDistributions(np.array([0.3, 0.1]), [0.5, 0.2], 4)
        assert (d == same) is True
        assert (d != same) is False
        assert d != SimilarityDistributions([0.1, 0.3], [0.5, 0.2], 4)  # order counts
        assert d != SimilarityDistributions([0.3, 0.1], [0.5, 0.2, 0.0], 4)
        assert d != SimilarityDistributions([0.3, 0.1], [0.5, 0.2], 5)
        assert d != (d.auto_samples, d.cross_samples, 4)

    def test_rebuild_equals(self, make_gallery):
        g = make_gallery(seed=6)
        assert build_distributions(g) == build_distributions(g)
