import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    roc_auc,
    select_threshold,
)
from adathresh import optimizer
from adathresh.metrics import rates_at
from conftest import (
    clustered_gallery,
    f1_by_counts,
    large_sweep_samples,
    naive_f1,
    plateau_optimum,
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

    def test_empty_side_rejected(self):
        with pytest.raises(InputContractError):
            optimize_f1(SimilarityDistributions([], [0.1]))

    def test_exact_above_a_hundred_thousand_distinct_values(self):
        auto, cross = large_sweep_samples()
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

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_sweep_holds_no_copy_of_the_samples(self, tied):
        rng = np.random.default_rng(7)
        auto, cross = rng.normal(0.7, 0.1, 400), rng.normal(0.3, 0.1, 120_000)
        if tied:
            # about 6,200 distinct values: nearly every sample repeats one
            auto, cross = np.round(auto, 4), np.round(cross, 4)
        dist = SimilarityDistributions(auto, cross)
        tracemalloc.start()
        try:
            lam, f1 = optimize_f1(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few arrays of the auto side's candidates, far under one copy of
        # the 963 KB of samples
        assert peak < 16 * (auto.size + 2) * 8
        assert (lam, f1) == plateau_optimum(auto, cross, f1_by_counts(auto, cross))


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
@given(auto=SAMPLES, cross=SAMPLES)
# hi's plateau (0.4, 1] ties the lowest winning plateau (0.2, 0.4] at f1 2/3,
# and the tie must go to the lower one
@example(auto=[0.4, 1.0], cross=[0.2, 0.4, 0.4])
def test_sweep_is_exact_on_every_plateau(auto, cross):
    dist = SimilarityDistributions(auto, cross)
    lam, f1 = optimize_f1(dist)
    assert metrics_at(dist, lam).f1 == f1

    def naive(ts):
        return [naive_f1(auto, cross, t) for t in ts]

    # the best f1, at the midpoint of the lowest plateau reaching it
    assert (lam, f1) == plateau_optimum(auto, cross, naive)
    assert 0.0 <= lam <= 1.0


@settings(max_examples=200, deadline=None)
@given(auto=SAMPLES, cross=SAMPLES)
def test_no_cross_value_beats_the_next_auto_candidate(auto, cross):
    # the sweep scores only the bounds and the in-bound auto values: at every
    # cross value c in [0, 1], the smallest such candidate a >= c scores
    # strictly more, or c is a itself, or f1 is 0 with no true positive
    dist = SimilarityDistributions(auto, cross)
    candidates = np.unique([0.0, 1.0, *[v for v in auto if 0.0 < v < 1.0]])
    c = np.unique([v for v in cross if 0.0 <= v <= 1.0])
    a = candidates[np.searchsorted(candidates, c, side="left")]
    at_c, at_a = rates_at(dist, c), rates_at(dist, a)
    assert np.all(
        (at_c.f1 < at_a.f1) | (a == c) | ((at_c.f1 == 0.0) & (at_c.tp == 0.0))
    )


def _outcome(fn, dist):
    """What ``fn(dist)`` returns, or the type of the contract error it raises."""
    try:
        return fn(dist)
    except (DegenerateDataError, InputContractError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    auto=st.lists(st.floats(-0.2, 1.0), min_size=1, max_size=60),
    cross=st.lists(st.floats(-0.5, 0.9), min_size=1, max_size=60),
    data=st.data(),
)
def test_results_depend_only_on_sample_values(auto, cross, data):
    # a permutation of either side changes no result, not even the last bit
    # of the Gaussian fit behind an intersection threshold
    dist = SimilarityDistributions(auto, cross)
    permuted = SimilarityDistributions(
        data.draw(st.permutations(auto)), data.draw(st.permutations(cross))
    )
    checks = [optimize_f1, roc_auc]
    for tau in (0.8, 1.0):
        config = AdaptConfig(tau=tau)
        checks.append(lambda d, c=config: optimizer._adapt_distributions(d, c))
    for fn in checks:
        assert _outcome(fn, dist) == _outcome(fn, permuted)


@settings(max_examples=100, deadline=None)
@given(
    auto=st.lists(st.floats(-0.2, 1.0), min_size=1, max_size=60),
    cross=st.lists(st.floats(-0.5, 0.9), min_size=1, max_size=60),
    tau=st.sampled_from([0.5, 0.8, 1.0]),
)
def test_adapted_state_depends_only_on_samples_and_tau(auto, cross, tau):
    # epsilon and tpr_denominator shape only the reported TPR and FPR
    dist = SimilarityDistributions(auto, cross)
    outcomes = {
        _outcome(
            lambda d: optimizer._adapt_distributions(
                d, AdaptConfig(tau=tau, epsilon=epsilon, tpr_denominator=denominator)
            ),
            dist,
        )
        for epsilon in (1e-9, 1e-3, 0.5)
        for denominator in ("standard", "paper")
    }
    assert len(outcomes) == 1


@settings(max_examples=100, deadline=None)
@given(
    num_identities=st.integers(3, 8),
    per_identity=st.integers(2, 4),
    within=st.floats(0.1, 0.8),
    seed=st.integers(0, 2**16),
    tau=st.floats(0.5, 1.0),
)
def test_f1_adaptation_never_retains(num_identities, per_identity, within, seed, tau):
    # the candidate is the exact f1 optimum over [0, 1], which contains the
    # intersection incumbent, so it can never lose to it
    g = clustered_gallery(num_identities, per_identity, dim=8, within=within, seed=seed)
    config = AdaptConfig(tau=tau)
    try:
        state = adapt(g, None, config)
    except InputContractError:
        assume(False)  # auto mean not above cross mean: nothing to adapt
    assume(state is not None)
    assert state.provenance != "retained_old"
    if state.provenance == "optimized":
        dist = build_distributions(g)
        assert state.f1_current == plateau_oracle_max(
            dist.auto_samples, dist.cross_samples
        )


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
        assert c.tpr_denominator == "standard"

    # each case keeps its id when another is added or taken away
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"tau": 0.0}, id="kwargs0"),
            pytest.param({"tau": 1.2}, id="kwargs1"),
            pytest.param({"epsilon": 0.0}, id="kwargs2"),
            pytest.param({"recompute_every_n": 0}, id="kwargs3"),
            pytest.param({"tpr_denominator": "both"}, id="kwargs6"),
            pytest.param({"epsilon": float("nan")}, id="kwargs7"),
            pytest.param({"epsilon": float("inf")}, id="kwargs8"),
            pytest.param({"recompute_every_n": 2.5}, id="kwargs9"),
            pytest.param({"recompute_every_n": "3"}, id="kwargs10"),
            pytest.param({"tau": True}, id="kwargs11"),
            pytest.param({"epsilon": True}, id="kwargs12"),
            pytest.param({"recompute_every_n": True}, id="kwargs13"),
            pytest.param({"tau": "0.5"}, id="kwargs14"),
            pytest.param({"tau": None}, id="kwargs15"),
            pytest.param({"tau": 0.5j}, id="kwargs16"),
            pytest.param({"epsilon": "1e-9"}, id="kwargs17"),
            pytest.param({"tau": 10**400}, id="kwargs18"),
            pytest.param({"epsilon": 10**400}, id="kwargs19"),
            pytest.param({"tau": -(10**400)}, id="kwargs20"),
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
