import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adathresh import (
    AdaptConfig,
    DegenerateDataError,
    Gallery,
    InputContractError,
    SimilarityDistributions,
    ThresholdState,
    adapt,
    build_distributions,
    estimate_gaussian,
    initialize_threshold,
    intersect_gaussians,
    maybe_adapt,
    metrics_at,
    optimize_f1,
    optimize_tpr_fpr_gap,
    select_threshold,
    tpr_fpr_objective,
)
from conftest import (
    clustered_gallery,
    naive_f1,
    naive_gap,
    plateau_candidates,
    plateau_oracle_max,
)

THREE_V_THREE = SimilarityDistributions([0.2, 0.6, 0.8], [0.1, 0.3, 0.7])


def random_dist(rng, max_n=40):
    na = int(rng.integers(1, max_n))
    nc = int(rng.integers(1, max_n))
    return SimilarityDistributions(
        rng.uniform(-0.2, 1.0, size=na), rng.uniform(-0.5, 0.9, size=nc)
    )


class TestOptimizeF1:
    def test_separable_returns_plateau_midpoint(self):
        lam, f1 = optimize_f1(SimilarityDistributions([0.9], [0.1]))
        assert f1 == 1.0
        assert lam == pytest.approx(0.5, abs=1e-15)  # midpoint of (0.1, 0.9]

    def test_three_by_three_against_plateau_oracle(self):
        # plateau enumeration puts the optimum at f1 = 0.75 on (0.1, 0.2]
        auto, cross = [0.2, 0.6, 0.8], [0.1, 0.3, 0.7]
        oracle = plateau_oracle_max(auto, cross)
        assert oracle == pytest.approx(0.75, abs=1e-12)
        lam, f1 = optimize_f1(THREE_V_THREE)
        assert f1 == oracle
        assert lam == pytest.approx(0.15, abs=1e-12)
        assert naive_f1(auto, cross, lam) == f1

    def test_matches_oracle_exactly_on_random_sets(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            dist = random_dist(rng)
            lam, f1 = optimize_f1(dist)
            oracle = plateau_oracle_max(dist.auto_samples, dist.cross_samples)
            assert f1 == oracle
            assert metrics_at(dist, lam).f1 == f1

    def test_returned_lambda_in_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            dist = random_dist(rng)
            lam, _ = optimize_f1(dist)
            assert 0.0 <= lam <= 1.0

    def test_means_bounded_restriction(self):
        rng = np.random.default_rng(72)
        bounded_cfg = AdaptConfig(bound_mode="means_bounded")
        checked = 0
        for _ in range(60):
            dist = random_dist(rng)
            if float(np.mean(dist.auto_samples)) <= float(np.mean(dist.cross_samples)):
                continue
            _, f1_free = optimize_f1(dist)
            lam_b, f1_b = optimize_f1(dist, bounded_cfg)
            assert f1_b <= f1_free
            lo = max(float(np.mean(dist.cross_samples)), 0.0)
            hi = min(float(np.mean(dist.auto_samples)), 1.0)
            assert lo <= lam_b <= hi
            checked += 1
        assert checked > 20

    def test_empty_side_rejected(self):
        with pytest.raises(InputContractError):
            optimize_f1(SimilarityDistributions([], [0.1]))

    def test_exact_above_a_hundred_thousand_distinct_values(self):
        # a seed on which a 512-point grid with golden-section refinement
        # misses the optimum (f1 0.56373 against 0.56530)
        rng = np.random.default_rng(4)
        auto = rng.uniform(0.4, 1.0, size=400)
        cross = rng.uniform(0.0, 0.8, size=120_000)
        lam, f1 = optimize_f1(SimilarityDistributions(auto, cross))
        # oracle: cumulative counts over the merged distinct values, where
        # every sample lies inside (0, 1)
        values, inverse = np.unique(np.concatenate([auto, cross]), return_inverse=True)
        assert values.size > 100_000

        def at_or_above(side):
            return np.cumsum(np.bincount(side, minlength=values.size)[::-1])[::-1]

        tp = at_or_above(inverse[: auto.size]).astype(np.float64)
        fp = at_or_above(inverse[auto.size :]).astype(np.float64)
        precision = tp / (tp + fp)
        recall = tp / auto.size
        oracle = np.where(tp > 0, 2.0 * precision * recall / (precision + recall), 0.0)
        assert f1 == oracle.max()
        assert metrics_at(SimilarityDistributions(auto, cross), lam).f1 == f1


# sample values with ties, duplicates across the two sides, and values
# outside [0, 1]
SAMPLES = st.lists(
    st.one_of(
        st.sampled_from([-0.25, 0.0, 0.3, 0.5, 1.0, 1.25]),
        st.floats(-0.5, 1.5, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(
    auto=SAMPLES,
    cross=SAMPLES,
    objective=st.sampled_from(["f1", "tpr_fpr_gap"]),
    bound_mode=st.sampled_from(["unbounded_01", "means_bounded"]),
    tpr_denominator=st.sampled_from(["standard", "paper"]),
)
def test_sweep_is_exact_on_every_plateau(auto, cross, objective, bound_mode, tpr_denominator):
    dist = SimilarityDistributions(auto, cross)
    config = AdaptConfig(
        objective=objective, bound_mode=bound_mode, tpr_denominator=tpr_denominator
    )
    lo, hi = 0.0, 1.0
    if bound_mode == "means_bounded":
        mean_auto = float(np.mean(dist.auto_samples))
        mean_cross = float(np.mean(dist.cross_samples))
        lo, hi = max(mean_cross, 0.0), min(mean_auto, 1.0)
        assume(mean_auto > mean_cross and hi >= lo)
    eps = config.epsilon
    if objective == "f1":
        lam, score = optimize_f1(dist, config)
        oracle = max(naive_f1(auto, cross, t) for t in plateau_candidates(auto, cross, lo, hi))
        assert metrics_at(dist, lam, eps, tpr_denominator).f1 == score
    else:
        lam, score = optimize_tpr_fpr_gap(dist, config)
        oracle = max(
            naive_gap(auto, cross, t, eps, tpr_denominator)
            for t in plateau_candidates(auto, cross, lo, hi)
        )
        assert tpr_fpr_objective(dist, lam, eps, tpr_denominator) == score
    assert score == oracle
    assert lo <= lam <= hi


class TestTprFprObjective:
    def test_perfect_separation(self):
        dist = SimilarityDistributions([0.8, 0.9], [0.1, 0.2])
        assert tpr_fpr_objective(dist, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_below_all_samples(self):
        dist = SimilarityDistributions([0.8, 0.9], [0.1, 0.2])
        assert tpr_fpr_objective(dist, -1.0) == pytest.approx(0.0, abs=1e-8)

    def test_three_by_three(self):
        assert tpr_fpr_objective(THREE_V_THREE, 0.5) == pytest.approx(1 / 3, abs=1e-8)

    def test_gap_optimizer_beats_pointwise_probes(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            dist = random_dist(rng)
            lam, gap = optimize_tpr_fpr_gap(dist)
            assert gap == pytest.approx(tpr_fpr_objective(dist, lam), abs=1e-15)
            for probe in rng.uniform(0, 1, size=25):
                assert gap >= tpr_fpr_objective(dist, float(probe)) - 1e-12


def make_state(lam=0.4, f1=0.6, version=0, tau=0.8):
    return ThresholdState(
        lambda_current=lam,
        lambda_old=lam,
        f1_current=f1,
        f1_old=f1,
        provenance="intersection",
        gallery_version=version,
        tau=tau,
    )


class TestSelectThreshold:
    CONFIG = AdaptConfig(tau=0.8)

    def test_case1_target_met(self):
        state = make_state(f1=0.9)  # incumbent even better, but case 1 fires first
        out = select_threshold(0.55, 0.85, state, self.CONFIG)
        assert out.lambda_current == 0.55
        assert out.f1_current == 0.85
        assert out.provenance == "optimized"
        assert out.lambda_old == state.lambda_current

    def test_case2_at_least_incumbent(self):
        state = make_state(f1=0.6)
        out = select_threshold(0.5, 0.7, state, self.CONFIG)
        assert out.lambda_current == 0.5
        assert out.provenance == "optimized"
        assert out.f1_old == 0.6

    def test_case3_retain_old(self):
        state = make_state(lam=0.4, f1=0.6)
        out = select_threshold(0.5, 0.5, state, self.CONFIG)
        assert out.lambda_current == 0.4
        assert out.lambda_old == 0.4
        assert out.provenance == "retained_old"
        assert out.f1_current == 0.6

    def test_candidate_out_of_range(self):
        with pytest.raises(InputContractError):
            select_threshold(1.5, 0.9, make_state(), self.CONFIG)


class TestAdapt:
    def test_short_circuit_on_separable_gallery(self):
        g = clustered_gallery(num_identities=6, per_identity=4, within=0.05, seed=80)
        state = adapt(g, None, AdaptConfig(tau=0.8))
        assert state is not None
        assert state.f1_current == 1.0
        assert state.provenance == "intersection"
        assert state.lambda_current == state.lambda_old
        assert state.gallery_version == g.change_counter

    def test_optimized_path_improves_on_intersection(self):
        g = clustered_gallery(num_identities=8, per_identity=4, within=0.8, seed=81)
        dist = build_distributions(g)
        auto_g = estimate_gaussian(dist.auto_samples)
        cross_g = estimate_gaussian(dist.cross_samples)
        lam0 = initialize_threshold(intersect_gaussians(auto_g, cross_g), auto_g, cross_g)
        lam0 = min(1.0, max(0.0, lam0))
        f1_init = metrics_at(dist, lam0).f1
        config = AdaptConfig(tau=0.999)
        state = adapt(g, None, config)
        assert f1_init < config.tau, "fixture must force the optimizer to run"
        assert state.provenance == "optimized"
        assert state.f1_old == f1_init
        assert state.lambda_old == lam0
        assert state.f1_current >= f1_init
        assert state.f1_current == plateau_oracle_max(
            dist.auto_samples, dist.cross_samples
        )

    def test_skip_on_single_embedding_identities(self, caplog):
        g = Gallery(4)
        rng = np.random.default_rng(82)
        for i in range(4):
            g.register(f"id{i}", rng.standard_normal(4))
        sentinel = make_state(version=g.change_counter)
        with caplog.at_level("WARNING"):
            out = adapt(g, sentinel, AdaptConfig())
        assert out is sentinel
        assert any("skipped" in r.message for r in caplog.records)
        assert g.registrations_since_adapt == 4  # not reset on skip

    def test_skip_on_zero_variance_auto(self, caplog):
        # exactly-unit basis vectors make every auto sample exactly 1.0
        g = Gallery(3)
        for i, basis in enumerate(np.eye(3)):
            g.register(f"id{i}", basis)
            g.register(f"id{i}", basis)
        with caplog.at_level("WARNING"):
            out = adapt(g, None, AdaptConfig())
        assert out is None
        assert any("skipped" in r.message for r in caplog.records)

    def test_resets_registration_counter(self):
        g = clustered_gallery(seed=84)
        assert g.registrations_since_adapt > 0
        adapt(g, None, AdaptConfig())
        assert g.registrations_since_adapt == 0

    def test_deterministic_and_idempotent(self):
        config = AdaptConfig(tau=0.95)
        s1 = adapt(clustered_gallery(within=0.5, seed=85), None, config)
        s2 = adapt(clustered_gallery(within=0.5, seed=85), None, config)
        assert s1 == s2
        g = clustered_gallery(within=0.5, seed=85)
        a1 = adapt(g, None, config)
        a2 = adapt(g, a1, config)
        assert a2.lambda_current == a1.lambda_current

    def test_never_worsen_on_fixed_gallery(self):
        config = AdaptConfig(tau=0.9)
        for seed in range(5):
            g = clustered_gallery(
                num_identities=8, per_identity=4, within=0.45, seed=100 + seed
            )
            state = None
            previous_f1 = -1.0
            for _ in range(4):
                state = adapt(g, state, config)
                assert state.f1_current >= previous_f1
                previous_f1 = state.f1_current

    def test_gap_objective_pipeline(self):
        g = clustered_gallery(num_identities=8, per_identity=4, within=0.5, seed=81)
        config = AdaptConfig(tau=0.999, objective="tpr_fpr_gap")
        state = adapt(g, None, config)
        assert state is not None
        assert 0.0 <= state.lambda_current <= 1.0


class TestMaybeAdapt:
    CONFIG = AdaptConfig(recompute_every_n=5, tau=0.95)

    def test_below_trigger_returns_state_unchanged(self):
        g = clustered_gallery(seed=90)
        state = adapt(g, None, self.CONFIG)
        rng = np.random.default_rng(90)
        for _ in range(3):
            g.register("extra", rng.standard_normal(16))
        assert maybe_adapt(g, state, self.CONFIG) is state

    def test_trigger_at_threshold(self):
        g = clustered_gallery(seed=91)
        state = adapt(g, None, self.CONFIG)
        rng = np.random.default_rng(91)
        for i in range(5):
            g.register(f"new{i}", rng.standard_normal(16))
        out = maybe_adapt(g, state, self.CONFIG)
        assert out is not state
        assert out.gallery_version == g.change_counter

    def test_cold_start_adapts(self):
        g = clustered_gallery(seed=92)
        out = maybe_adapt(g, None, self.CONFIG)
        assert out is not None

    def test_deletion_always_triggers(self):
        g = clustered_gallery(num_identities=5, per_identity=3, seed=93)
        state = adapt(g, None, self.CONFIG)
        victim = g.embeddings_of(g.identities[0])[0].instance_id
        g.remove(victim)
        out = maybe_adapt(g, state, self.CONFIG)
        assert out is not state
        assert out.gallery_version == g.change_counter


class TestAdaptConfig:
    def test_defaults(self):
        c = AdaptConfig()
        assert c.tau == 0.8
        assert c.epsilon == 1e-9
        assert c.recompute_every_n == 1
        assert c.objective == "f1"
        assert c.bound_mode == "unbounded_01"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": 1.2},
            {"epsilon": 0.0},
            {"recompute_every_n": 0},
            {"objective": "accuracy"},
            {"bound_mode": "everything"},
            {"tpr_denominator": "both"},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputContractError):
            AdaptConfig(**kwargs)


class TestDegenerateIntersectionPropagation:
    def test_identical_distribution_skip(self, caplog):
        # force statistically identical auto/cross by symmetric construction
        dist_auto = [0.2, 0.4]
        dist_cross = [0.2, 0.4]
        auto_g = estimate_gaussian(dist_auto)
        cross_g = estimate_gaussian(dist_cross)
        with pytest.raises(DegenerateDataError):
            intersect_gaussians(auto_g, cross_g)
