import math

import numpy as np
import pytest

from adathresh import (
    DegenerateDataError,
    GaussianEstimate,
    InputContractError,
    IntersectionResult,
    estimate_gaussian,
    gaussian_pdf,
    initialize_threshold,
    intersect_gaussians,
)


def bisect_intersection(g1, g2, lo, hi, iters=200):
    """Independent root finder for pdf1(x) = pdf2(x) on [lo, hi]."""
    f = lambda x: gaussian_pdf(g1, x) - gaussian_pdf(g2, x)
    flo = f(lo)
    assert flo * f(hi) < 0, "bracket must straddle the intersection"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestEstimateGaussian:
    def test_two_point(self):
        g = estimate_gaussian([0.0, 1.0])
        assert (g.mu, g.sigma, g.nu, g.n) == (0.5, 0.5, 0.25, 2)

    def test_zero_variance(self):
        with pytest.raises(DegenerateDataError):
            estimate_gaussian([0.3, 0.3, 0.3])

    def test_too_few_samples(self):
        with pytest.raises(DegenerateDataError):
            estimate_gaussian([0.5])

    def test_four_point_population_variance(self):
        vals = [0.2, 0.4, 0.6, 0.8]
        mu = sum(vals) / 4.0
        nu = sum((v - mu) ** 2 for v in vals) / 4.0  # hand-rolled population variance
        g = estimate_gaussian(vals)
        assert g.mu == pytest.approx(0.5, abs=1e-15)
        assert g.nu == pytest.approx(nu, rel=1e-12)
        assert g.nu == pytest.approx(0.05, rel=1e-9)

    def test_variance_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = estimate_gaussian(rng.uniform(-1, 1, size=rng.integers(2, 40)))
            assert g.nu == pytest.approx(g.sigma**2, rel=1e-12)
            assert g.sigma > 0 and g.n >= 2


class TestGaussianPdf:
    def test_standard_normal_peak(self):
        g = GaussianEstimate(mu=0.0, sigma=1.0, nu=1.0, n=2)
        assert gaussian_pdf(g, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
        )

    def test_symmetry(self):
        g = GaussianEstimate(mu=0.0, sigma=1.0, nu=1.0, n=2)
        assert gaussian_pdf(g, 1.0) == gaussian_pdf(g, -1.0)

    def test_wide_peak(self):
        g = GaussianEstimate(mu=5.0, sigma=2.0, nu=4.0, n=2)
        assert gaussian_pdf(g, 5.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(2.0 * math.pi)), rel=1e-15
        )

    def test_integrates_to_one(self):
        g = GaussianEstimate(mu=0.7, sigma=0.23, nu=0.23**2, n=5)
        xs = np.linspace(g.mu - 8 * g.sigma, g.mu + 8 * g.sigma, 20001)
        total = np.trapezoid(gaussian_pdf(g, xs), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_array_input(self):
        g = GaussianEstimate(mu=0.0, sigma=1.0, nu=1.0, n=2)
        out = gaussian_pdf(g, np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestIntersectGaussians:
    def test_equal_variance_midpoint(self):
        res = intersect_gaussians(
            GaussianEstimate(mu=0.6, sigma=0.1, nu=0.01, n=3),
            GaussianEstimate(mu=0.3, sigma=0.1, nu=0.01, n=3),
        )
        assert res.chosen == 0.5 * (0.6 + 0.3)
        assert res.chosen == pytest.approx(0.45, abs=1e-15)

    def test_identical_distributions(self):
        g = GaussianEstimate(mu=0.4, sigma=0.2, nu=0.04, n=5)
        with pytest.raises(DegenerateDataError):
            intersect_gaussians(g, g)

    def test_bisection_oracle(self):
        auto = GaussianEstimate(mu=0.6, sigma=0.15, nu=0.15**2, n=10)
        cross = GaussianEstimate(mu=0.1, sigma=0.25, nu=0.25**2, n=10)
        res = intersect_gaussians(auto, cross)
        assert res.chosen is not None
        root = bisect_intersection(auto, cross, 0.1, 0.6)
        assert res.chosen == pytest.approx(root, abs=1e-9)
        peak = max(gaussian_pdf(auto, auto.mu), gaussian_pdf(cross, cross.mu))
        assert abs(gaussian_pdf(auto, res.chosen) - gaussian_pdf(cross, res.chosen)) <= 1e-12 * peak

    def test_quadratic_residual_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            mu1, mu2 = rng.uniform(-1, 1, size=2)
            if mu1 == mu2:
                continue
            s1, s2 = rng.uniform(0.05, 1.0, size=2)
            auto = GaussianEstimate(mu=mu1, sigma=s1, nu=s1 * s1, n=4)
            cross = GaussianEstimate(mu=mu2, sigma=s2, nu=s2 * s2, n=4)
            res = intersect_gaussians(auto, cross)
            a, b, c = res.quadratic_coeffs
            scale = max(1.0, abs(a) + abs(b) + abs(c))
            for r in res.roots:
                assert abs(a * r * r + b * r + c) <= 1e-9 * scale

    def test_translation_equivariance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            mu1, mu2 = rng.uniform(-0.5, 0.5, size=2)
            s1, s2 = rng.uniform(0.05, 0.8, size=2)
            if mu1 == mu2 or s1 == s2:
                continue
            delta = float(rng.uniform(-0.5, 0.5))
            base = intersect_gaussians(
                GaussianEstimate(mu1, s1, s1 * s1, 3),
                GaussianEstimate(mu2, s2, s2 * s2, 3),
            )
            shifted = intersect_gaussians(
                GaussianEstimate(mu1 + delta, s1, s1 * s1, 3),
                GaussianEstimate(mu2 + delta, s2, s2 * s2, 3),
            )
            assert len(base.roots) == len(shifted.roots)
            for r, rs in zip(base.roots, shifted.roots):
                assert rs == pytest.approx(r + delta, abs=1e-12)

    def test_chosen_between_means(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            mu1, mu2 = rng.uniform(-1, 1, size=2)
            s1, s2 = rng.uniform(0.05, 1.0, size=2)
            if mu1 == mu2:
                continue
            res = intersect_gaussians(
                GaussianEstimate(mu1, s1, s1 * s1, 3),
                GaussianEstimate(mu2, s2, s2 * s2, 3),
            )
            if res.chosen is not None:
                assert min(mu1, mu2) <= res.chosen <= max(mu1, mu2)


class TestInitializeThreshold:
    AUTO = GaussianEstimate(mu=0.6, sigma=0.1, nu=0.01, n=5)
    CROSS = GaussianEstimate(mu=0.3, sigma=0.1, nu=0.01, n=5)

    def _result(self, chosen):
        return IntersectionResult(
            roots=[chosen] if chosen is not None else [],
            chosen=chosen,
            quadratic_coeffs=(0.0, 1.0, -chosen if chosen is not None else 0.0),
        )

    def test_passthrough(self):
        assert initialize_threshold(self._result(0.45), self.AUTO, self.CROSS) == 0.45

    def test_mean_fallback_when_absent(self):
        assert initialize_threshold(self._result(None), self.AUTO, self.CROSS) == (
            pytest.approx(0.45)
        )

    def test_out_of_band_falls_back(self):
        assert initialize_threshold(self._result(0.75), self.AUTO, self.CROSS) == (
            pytest.approx(0.45)
        )

    def test_outside_unit_interval_falls_back(self):
        auto = GaussianEstimate(mu=0.4, sigma=0.1, nu=0.01, n=5)
        cross = GaussianEstimate(mu=-0.4, sigma=0.1, nu=0.01, n=5)
        # -0.2 sits between the means but outside [0, 1]
        assert initialize_threshold(self._result(-0.2), auto, cross) == pytest.approx(0.0)

    def test_mean_ordering_enforced(self):
        with pytest.raises(InputContractError):
            initialize_threshold(self._result(None), self.CROSS, self.AUTO)

    def test_output_between_means(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            mu2 = float(rng.uniform(0.0, 0.5))
            mu1 = float(rng.uniform(mu2 + 0.01, 1.0))
            s1, s2 = rng.uniform(0.02, 0.5, size=2)
            auto = GaussianEstimate(mu1, s1, s1 * s1, 3)
            cross = GaussianEstimate(mu2, s2, s2 * s2, 3)
            lam = initialize_threshold(intersect_gaussians(auto, cross), auto, cross)
            assert mu2 <= lam <= mu1
