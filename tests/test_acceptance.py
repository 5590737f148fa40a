"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np

from adathresh import (
    AdaptConfig,
    Gallery,
    GaussianEstimate,
    SimilarityDistributions,
    SynthSpec,
    adapt,
    export,
    gaussian_pdf,
    generate_synthetic,
    intersect_gaussians,
    metrics_at,
    optimize_f1,
    roc_sweep,
    run_incremental,
    summarize,
)
from adathresh.cli import EXIT_DEGENERATE, main
from conftest import clustered_gallery, mann_whitney_auc


class _Criterion:
    """Times a criterion body and prints one PASS/FAIL line."""

    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"[criterion {self.number}] {status} ({elapsed:.2f}s / "
            f"budget {self.budget_s:g}s): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _estimate(mu: float, sigma: float) -> GaussianEstimate:
    return GaussianEstimate(mu=mu, sigma=sigma, nu=sigma * sigma, n=10)


def test_criterion_1_quadratic_intersection_oracle():
    with _Criterion(1, "Gaussian intersection roots against the pdf oracle", 1.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            mu1, mu2 = rng.uniform(-2.0, 2.0, size=2)
            while mu1 == mu2:
                mu2 = float(rng.uniform(-2.0, 2.0))
            s1, s2 = rng.uniform(0.05, 1.5, size=2)
            auto, cross = _estimate(mu1, s1), _estimate(mu2, s2)
            result = intersect_gaussians(auto, cross)
            peak = max(gaussian_pdf(auto, mu1), gaussian_pdf(cross, mu2))
            for root in result.roots:
                residual = abs(gaussian_pdf(auto, root) - gaussian_pdf(cross, root))
                assert residual <= 1e-9 * peak

            equal = intersect_gaussians(_estimate(mu1, s1), _estimate(mu2, s1))
            assert len(equal.roots) == 1
            assert abs(equal.roots[0] - 0.5 * (mu1 + mu2)) <= 1e-12


def _oracle_best_f1(auto: np.ndarray, cross: np.ndarray, lo=0.0, hi=1.0) -> float:
    # independent plateau enumeration: candidate per plateau, counts by
    # broadcast comparison (no sorting, no binary search)
    values = np.unique(np.concatenate([auto, cross]))
    cands = np.concatenate([[lo], values[(values > lo) & (values < hi)], [hi]])
    tp = (auto[:, None] >= cands[None, :]).sum(axis=0).astype(np.float64)
    fp = (cross[:, None] >= cands[None, :]).sum(axis=0).astype(np.float64)
    pden = tp + fp
    precision = np.where(pden > 0.0, tp / np.where(pden > 0.0, pden, 1.0), 0.0)
    recall = tp / float(auto.size)
    prsum = precision + recall
    f1 = np.where(
        prsum > 0.0, 2.0 * precision * recall / np.where(prsum > 0.0, prsum, 1.0), 0.0
    )
    return float(f1.max())


def test_criterion_2_optimizer_matches_plateau_oracle_exactly():
    with _Criterion(2, "optimize_f1 equals the exhaustive plateau scan", 10.0):
        rng = np.random.default_rng(1002)
        for _ in range(500):
            auto = rng.uniform(-0.3, 1.0, size=int(rng.integers(1, 301)))
            cross = rng.uniform(-0.5, 0.9, size=int(rng.integers(1, 301)))
            dist = SimilarityDistributions(auto, cross)
            lam, f1 = optimize_f1(dist)
            assert f1 == _oracle_best_f1(dist.auto_samples, dist.cross_samples)
            assert metrics_at(dist, lam).f1 == f1


def test_criterion_3_confusion_partition_and_monotonicity():
    with _Criterion(3, "confusion partition and monotone counts", 5.0):
        rng = np.random.default_rng(1003)
        for _ in range(200):
            na = int(rng.integers(1, 120))
            nc = int(rng.integers(1, 120))
            dist = SimilarityDistributions(
                rng.uniform(-1, 1, size=na), rng.uniform(-1, 1, size=nc)
            )
            prev_tp = prev_fp = None
            for lam in np.linspace(-1.05, 1.05, 101):
                c = metrics_at(dist, float(lam))
                assert c.tp + c.fn == na
                assert c.fp + c.tn == nc
                if prev_tp is not None:
                    assert c.tp <= prev_tp
                    assert c.fp <= prev_fp
                prev_tp, prev_fp = c.tp, c.fp


def test_criterion_4_auc_matches_mann_whitney():
    with _Criterion(4, "AUC equals the Mann-Whitney pairwise oracle", 10.0):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            na = int(rng.integers(2, 201))
            nc = int(rng.integers(2, 201))
            auto = rng.normal(loc=0.45, scale=0.25, size=na)
            cross = rng.normal(loc=0.15, scale=0.25, size=nc)
            dist = SimilarityDistributions(
                np.clip(auto, -1, 1), np.clip(cross, -1, 1)
            )
            swept = roc_sweep(dist, 1001).auc
            oracle = mann_whitney_auc(dist.auto_samples, dist.cross_samples)
            assert swept == oracle


def test_criterion_5_adaptive_dominates_fixed_thresholds():
    with _Criterion(5, "incremental run: adaptive f1 dominance + accuracy gains", 60.0):
        spec = SynthSpec(
            num_identities=100,
            embeddings_per_identity=5,
            dimension=64,
            within_spread=0.18,
            between_spread=1.0,
            rng_seed=42,
        )
        gallery = generate_synthetic(spec)
        # tau = 1.0 keeps the optimizer in the loop at every step, making
        # dominance over any fixed threshold structural
        rows = run_incremental(gallery, AdaptConfig(tau=1.0), [0.3, 0.5, 0.7])
        adaptive_f1 = {r.step: r.f1 for r in rows if r.threshold_kind == "adaptive"}
        for row in rows:
            if row.threshold_kind != "adaptive":
                assert adaptive_f1[row.step] >= row.f1, (
                    f"fixed {row.threshold_kind} beat adaptive at step {row.step}"
                )
        report = summarize(rows)
        gains = [
            k.relative_accuracy_gain_pct
            for k in report.kinds
            if k.threshold_kind != "adaptive"
        ]
        assert sum(1 for gain in gains if gain is not None and gain > 0.0) >= 2


def test_criterion_6_adaptation_never_worsens():
    with _Criterion(6, "f1 never decreases across adapt calls on a fixed gallery", 30.0):
        config = AdaptConfig(tau=0.9)
        for seed in range(50):
            gallery = clustered_gallery(
                num_identities=6, per_identity=3, dim=16, within=0.3, seed=seed
            )
            state = None
            previous = -1.0
            for _ in range(3):
                state = adapt(gallery, state, config)
                assert state is not None
                assert state.f1_current >= previous
                previous = state.f1_current


def test_criterion_7_determinism_and_round_trips(tmp_path):
    with _Criterion(7, "seeded synth/simulate byte-identical; save/load lossless", 10.0):
        spec = SynthSpec(
            num_identities=8,
            embeddings_per_identity=3,
            dimension=32,
            within_spread=0.25,
            between_spread=1.0,
            rng_seed=9,
        )
        outputs = []
        for tag in ("first", "second"):
            emb = tmp_path / f"{tag}-emb.csv"
            rows_path = tmp_path / f"{tag}-rows.csv"
            generate_synthetic(spec, emb)
            rows = run_incremental(Gallery.load(emb), AdaptConfig(), [0.3, 0.5, 0.7])
            export(rows, rows_path)
            outputs.append((emb.read_bytes(), rows_path.read_bytes()))
        assert outputs[0] == outputs[1]

        original = Gallery.load(tmp_path / "first-emb.csv")
        original.mark_adapted()
        round_path = tmp_path / "round.csv"
        original.save(round_path)
        loaded = Gallery.load(round_path)
        assert loaded.dimension == original.dimension
        assert loaded.identities == original.identities
        assert loaded.change_counter == original.change_counter
        assert loaded.registrations_since_adapt == original.registrations_since_adapt
        for label in original.identities:
            for a, b in zip(original.embeddings_of(label), loaded.embeddings_of(label)):
                assert a.instance_id == b.instance_id
                assert np.array_equal(a.vector, b.vector)


def test_criterion_8_degenerate_inputs_handled(tmp_path):
    with _Criterion(8, "degenerate data: skip with exit code 3, state retained", 1.0):
        # single embedding per identity: no auto samples at all
        thin = Gallery(4)
        rng = np.random.default_rng(1008)
        for i in range(4):
            thin.register(f"id{i}", rng.standard_normal(4))
        thin_path = tmp_path / "thin.csv"
        thin.save(thin_path)
        assert main(["adapt", "--gallery", str(thin_path)]) == EXIT_DEGENERATE
        assert adapt(thin, None, AdaptConfig()) is None

        # zero-variance auto side: exactly repeated unit basis vectors
        flat = Gallery(3)
        for i, basis in enumerate(np.eye(3)):
            flat.register(f"id{i}", basis)
            flat.register(f"id{i}", basis)
        prior = adapt(
            clustered_gallery(num_identities=4, per_identity=3, dim=3, seed=2),
            None,
            AdaptConfig(),
        )
        assert prior is not None
        assert adapt(flat, prior, AdaptConfig()) is prior
