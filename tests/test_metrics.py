import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adathresh import (
    AdaptConfig,
    Gallery,
    InputContractError,
    Rates,
    SimilarityDistributions,
    build_distributions,
    metrics_at,
    roc_auc,
    roc_sweep,
    run_incremental,
)
from adathresh.metrics import rates_at
from conftest import mann_whitney_auc, naive_confusion

THREE_V_THREE = SimilarityDistributions([0.2, 0.6, 0.8], [0.1, 0.3, 0.7])


def random_dist(rng, max_n=60):
    na = int(rng.integers(1, max_n))
    nc = int(rng.integers(1, max_n))
    return SimilarityDistributions(
        rng.uniform(-1, 1, size=na), rng.uniform(-1, 1, size=nc)
    )


class TestConfusionAt:
    """The confusion counts at one threshold, read from ``metrics_at``."""

    def test_perfectly_separated(self):
        c = metrics_at(SimilarityDistributions([0.9], [0.1]), 0.5)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 0, 0, 1)

    def test_everything_positive_at_minus_one(self):
        dist = SimilarityDistributions([0.2, 0.6, 0.8], [0.1, 0.3, 0.7])
        c = metrics_at(dist, -1.0)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 3, 0, 0)

    def test_three_by_three(self):
        c = metrics_at(THREE_V_THREE, 0.5)
        assert (c.tp, c.fn, c.fp, c.tn) == naive_confusion(
            [0.2, 0.6, 0.8], [0.1, 0.3, 0.7], 0.5
        )
        assert (c.tp, c.fn, c.fp, c.tn) == (2, 1, 1, 2)

    def test_boundary_counts_positive(self):
        c = metrics_at(SimilarityDistributions([0.5], [0.5]), 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 0, 0)

    def test_empty_side_rejected(self):
        with pytest.raises(InputContractError):
            metrics_at(SimilarityDistributions([], [0.1]), 0.5)
        with pytest.raises(InputContractError):
            metrics_at(SimilarityDistributions([0.9], []), 0.5)

    def test_partition_and_monotonicity(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            dist = random_dist(rng)
            prev_tp = prev_fp = None
            for lam in np.linspace(-1.1, 1.1, 45):
                c = metrics_at(dist, float(lam))
                assert c.tp + c.fn == dist.auto_samples.size
                assert c.fp + c.tn == dist.cross_samples.size
                if prev_tp is not None:
                    assert c.tp <= prev_tp
                    assert c.fp <= prev_fp
                prev_tp, prev_fp = c.tp, c.fp


class TestMetricsAt:
    def test_perfect_separation(self):
        m = metrics_at(SimilarityDistributions([0.9], [0.1]), 0.5)
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_no_positives_gives_zero_not_nan(self):
        m = metrics_at(SimilarityDistributions([0.2, 0.3], [0.1]), 0.99)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_three_by_three_values(self):
        m = metrics_at(THREE_V_THREE, 0.5)
        assert m.precision == pytest.approx(2 / 3, abs=1e-15)
        assert m.recall == pytest.approx(2 / 3, abs=1e-15)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-15)
        assert m.accuracy == pytest.approx(4 / 6, abs=1e-15)

    def test_f1_algebraic_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            dist = random_dist(rng)
            lam = float(rng.uniform(-1, 1))
            m = metrics_at(dist, lam)
            if m.tp > 0:
                assert m.f1 == pytest.approx(
                    2 * m.tp / (2 * m.tp + m.fp + m.fn), abs=1e-12
                )

    def test_epsilon_zero_matches_default(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            dist = random_dist(rng)
            lam = float(rng.uniform(-0.9, 0.9))
            m0 = metrics_at(dist, lam, epsilon=0.0)
            m9 = metrics_at(dist, lam, epsilon=1e-9)
            for field in ("precision", "recall", "f1", "accuracy", "tpr", "fpr"):
                a, b = getattr(m0, field), getattr(m9, field)
                if a != 0.0:
                    assert abs(a - b) / abs(a) <= 1e-6

    def test_paper_tpr_denominator(self):
        m = metrics_at(THREE_V_THREE, 0.5, epsilon=1e-9, tpr_denominator="paper")
        assert m.tpr == m.tp / (m.tp + m.fp + 1e-9)
        standard = metrics_at(THREE_V_THREE, 0.5)
        assert standard.tpr == m.tp / (m.tp + m.fn + 1e-9)

    def test_bad_arguments(self):
        with pytest.raises(InputContractError):
            metrics_at(THREE_V_THREE, 0.5, epsilon=-1.0)
        with pytest.raises(InputContractError):
            metrics_at(THREE_V_THREE, 0.5, tpr_denominator="nonsense")

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(InputContractError):
            rates_at(THREE_V_THREE, np.array([0.5]), epsilon)
        with pytest.raises(InputContractError):
            roc_sweep(THREE_V_THREE, 11, epsilon)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InputContractError):
            rates_at(THREE_V_THREE, np.array([0.5, np.nan]))
        with pytest.raises(InputContractError):
            metrics_at(THREE_V_THREE, float("nan"))

    @pytest.mark.parametrize("threshold", ["0.5", True, np.True_, None, 0.5j, [0.5]])
    def test_threshold_that_is_not_a_real_number_rejected(self, threshold):
        with pytest.raises(InputContractError, match="threshold must be a real number"):
            metrics_at(THREE_V_THREE, threshold)

    @pytest.mark.parametrize("threshold", [np.float64(0.6), np.float32(0.6), 1, np.int64(0)])
    def test_real_threshold_scores_as_its_float(self, threshold):
        assert metrics_at(THREE_V_THREE, threshold) == metrics_at(
            THREE_V_THREE, float(threshold)
        )

    def test_an_int_too_large_for_a_float_scores_as_an_infinity(self):
        for sign in (1, -1):
            assert metrics_at(THREE_V_THREE, sign * 10**400) == metrics_at(
                THREE_V_THREE, sign * math.inf
            )

    def test_one_threshold_is_rates_at_as_python_floats(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            dist = random_dist(rng)
            lam = float(rng.uniform(-1, 1))
            m = metrics_at(dist, lam, 1e-3, "paper")
            r = rates_at(dist, np.array([lam]), 1e-3, "paper")
            for f in fields(Rates):
                value = getattr(m, f.name)
                assert type(value) is float
                assert value.hex() == float(getattr(r, f.name)[0]).hex()
            assert m.tp + m.fn == dist.auto_samples.size
            assert m.tp.is_integer() and m.fp.is_integer()


class TestRocSweep:
    def test_perfect_separation_auc(self):
        dist = SimilarityDistributions([0.9, 0.8], [0.1, 0.2])
        for n in (2, 3, 11, 101):
            assert roc_sweep(dist, n).auc == 1.0

    def test_identical_lists_near_chance(self):
        vals = [0.1, 0.25, 0.4, 0.55, 0.7]
        dist = SimilarityDistributions(vals, vals)
        assert roc_sweep(dist, 1001).auc == 0.5

    def test_three_by_three_matches_mann_whitney(self):
        oracle = mann_whitney_auc([0.2, 0.6, 0.8], [0.1, 0.3, 0.7])
        assert oracle == pytest.approx(2 / 3, abs=1e-15)
        assert roc_sweep(THREE_V_THREE, 1001).auc == oracle

    def test_point_count_and_order(self):
        roc = roc_sweep(THREE_V_THREE, 25)
        assert len(roc.points) == 25 + 2
        lams = [p[2] for p in roc.points]
        assert lams == sorted(lams, reverse=True)

    def test_anchors(self):
        roc = roc_sweep(THREE_V_THREE, 25)
        assert roc.points[0][:2] == (0.0, 0.0)
        assert roc.points[-1][:2] == (1.0, 1.0)

    def test_rates_monotone_along_curve(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            dist = random_dist(rng)
            roc = roc_sweep(dist, 101)
            fprs = [p[0] for p in roc.points]
            tprs = [p[1] for p in roc.points]
            assert all(a <= b for a, b in zip(fprs, fprs[1:]))
            assert all(a <= b for a, b in zip(tprs, tprs[1:]))

    def test_binary_search_matches_direct_scan(self):
        rng = np.random.default_rng(54)
        dist = random_dist(rng)
        roc = roc_sweep(dist, 101, epsilon=1e-9)
        na = dist.auto_samples.size
        nc = dist.cross_samples.size
        for fpr, tpr, lam in roc.points[1:-1]:
            c = metrics_at(dist, lam)
            assert tpr == c.tp / (c.tp + c.fn + 1e-9)
            assert fpr == c.fp / (c.fp + c.tn + 1e-9)
            assert c.tp + c.fn == na and c.fp + c.tn == nc

    def test_num_points_validated(self):
        with pytest.raises(InputContractError):
            roc_sweep(THREE_V_THREE, 1)


# a handful of values, so auto and cross share many samples
TIED_SAMPLES = st.lists(
    st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=40
)
# unit rows from a few directions: best similarities repeat exactly
DIRECTIONS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0)]


class TestRocAuc:
    def test_empty_side_rejected(self):
        with pytest.raises(InputContractError):
            roc_auc(SimilarityDistributions([], [0.1]))

    @settings(max_examples=200, deadline=None)
    @given(auto=TIED_SAMPLES, cross=TIED_SAMPLES)
    def test_ties_match_mann_whitney_exactly(self, auto, cross):
        dist = SimilarityDistributions(auto, cross)
        oracle = mann_whitney_auc(auto, cross)
        assert roc_auc(dist) == oracle
        assert roc_sweep(dist, 1001).auc == oracle

    @settings(max_examples=100, deadline=None)
    @given(
        decimals=st.integers(1, 3),
        auto=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
        cross=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=500),
    )
    @example(decimals=1, auto=[0.0, 0.5, 0.5, 1.0] * 15, cross=[-0.5, 0.0, 0.5, 0.5, 1.0] * 100)
    def test_tie_heavy_auc_has_the_bits_of_the_count_per_cross_sample(self, decimals, auto, cross):
        # values rounded to 1-3 decimals, so many pairs tie
        dist = SimilarityDistributions(np.round(auto, decimals), np.round(cross, decimals))
        a, c = dist.auto_samples, dist.cross_samples
        # for each cross sample, the auto samples at least as high and those higher
        at_least = a.size - np.searchsorted(a, c, side="left")
        above = a.size - np.searchsorted(a, c, side="right")
        expected = float((at_least.sum() + above.sum()) / (2 * a.size * c.size))
        assert roc_auc(dist).hex() == expected.hex()
        assert roc_auc(dist) == mann_whitney_auc(a, c)

    @settings(max_examples=40, deadline=None)
    @given(
        identities=st.lists(
            st.lists(st.sampled_from(DIRECTIONS), min_size=1, max_size=3),
            min_size=2,
            max_size=6,
        ),
        first_pair=st.sampled_from(DIRECTIONS),
    )
    def test_run_incremental_reports_the_sweep_auc(self, identities, first_pair):
        gallery = Gallery(3)
        gallery.register("id0", first_pair)  # the first identity holds an auto pair
        for k, vectors in enumerate(identities):
            for v in vectors:
                gallery.register(f"id{k}", v)
        rows = run_incremental(gallery, AdaptConfig(), [0.5])
        expected = roc_sweep(build_distributions(gallery), 1001).auc
        assert {r.auc for r in rows if r.step == len(identities)} == {expected}
