"""Gaussian summaries of similarity samples and their intersection threshold."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InputContractError

# Below this |A| the quadratic is ill-conditioned; the linear solution is the
# exact limit.
_LINEAR_CUTOFF = 1e-12


@dataclass(frozen=True)
class GaussianEstimate:
    """Moment summary of one sample set: mean, population std, variance."""

    mu: float
    sigma: float
    nu: float
    n: int


@dataclass(frozen=True)
class IntersectionResult:
    """Real solutions of pdf_auto(x) = pdf_cross(x), with the pick between the means."""

    roots: list[float]
    chosen: float | None
    quadratic_coeffs: tuple[float, float, float]


def estimate_gaussian(samples) -> GaussianEstimate:
    """Fit a descriptive Gaussian: sample mean and population (1/n) deviation.

    Raises DegenerateDataError when there are fewer than two samples or all
    samples coincide (zero variance).
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise InputContractError(f"expected a flat sample list, got shape {arr.shape}")
    if arr.size < 2:
        raise DegenerateDataError(f"need at least 2 samples, got {arr.size}")
    mu = float(arr.mean())
    nu = float(arr.var())
    if nu == 0.0:
        raise DegenerateDataError("all samples identical: zero variance")
    return GaussianEstimate(mu=mu, sigma=math.sqrt(nu), nu=nu, n=int(arr.size))


def gaussian_pdf(g: GaussianEstimate, x):
    """Normal density of ``g`` at ``x`` (scalar or array)."""
    z = (np.asarray(x, dtype=np.float64) - g.mu) / g.sigma
    out = np.exp(-0.5 * z * z) / (g.sigma * math.sqrt(2.0 * math.pi))
    return float(out) if out.ndim == 0 else out


def intersect_gaussians(
    auto: GaussianEstimate, cross: GaussianEstimate
) -> IntersectionResult:
    """Solve pdf_auto(x) = pdf_cross(x).

    Taking logs reduces the equality to A x^2 + B x + C = 0 with

        A = nu1 - nu2
        B = 2 (mu1 nu2 - mu2 nu1)
        C = nu1 mu2^2 - nu2 mu1^2 - nu1 nu2 log(nu1 / nu2)

    where subscript 1 is the auto estimate and 2 the cross estimate. Equal
    variances collapse the quadratic to one root, forced to the exact midpoint
    of the means. Otherwise both roots come from the cancellation-safe form
    q = -(B + sign(B) sqrt(disc)) / 2 with roots q/A and C/q, which stays
    accurate when B^2 >> 4AC (auto/cross variances nearly equal).

    ``chosen`` is the root inside [min(mu), max(mu)]; when both qualify the
    one with the higher density wins, ties going to the smaller root.
    """
    mu1, nu1 = auto.mu, auto.nu
    mu2, nu2 = cross.mu, cross.nu
    a = nu1 - nu2
    b = 2.0 * (mu1 * nu2 - mu2 * nu1)
    c = nu1 * mu2 * mu2 - nu2 * mu1 * mu1 - nu1 * nu2 * math.log(nu1 / nu2)

    if abs(a) <= _LINEAR_CUTOFF:
        if abs(b) <= _LINEAR_CUTOFF:
            raise DegenerateDataError(
                "auto and cross distributions are statistically identical"
            )
        if nu1 == nu2:
            roots = [0.5 * (mu1 + mu2)]
        else:
            roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            roots = []
        else:
            sign = 1.0 if b >= 0.0 else -1.0
            q = -0.5 * (b + sign * math.sqrt(disc))
            if q == 0.0:
                roots = [0.0]
            else:
                r1, r2 = q / a, c / q
                roots = [r1] if r1 == r2 else sorted((r1, r2))

    lo_mu, hi_mu = min(mu1, mu2), max(mu1, mu2)
    in_band = [r for r in roots if lo_mu <= r <= hi_mu]
    if not in_band:
        chosen = None
    elif len(in_band) == 1:
        chosen = in_band[0]
    else:
        d0, d1 = gaussian_pdf(auto, in_band[0]), gaussian_pdf(auto, in_band[1])
        chosen = in_band[0] if d0 >= d1 else in_band[1]
    return IntersectionResult(roots=roots, chosen=chosen, quadratic_coeffs=(a, b, c))


def _threshold_with_source(
    intersection: IntersectionResult,
    auto: GaussianEstimate,
    cross: GaussianEstimate,
) -> tuple[float, str]:
    if auto.mu <= cross.mu:
        raise InputContractError(
            f"auto mean ({auto.mu:.6g}) must exceed cross mean ({cross.mu:.6g}); "
            "the embedding model does not separate identities"
        )
    chosen = intersection.chosen
    if (
        chosen is not None
        and cross.mu <= chosen <= auto.mu
        and 0.0 <= chosen <= 1.0
    ):
        return float(chosen), "intersection"
    return 0.5 * (cross.mu + auto.mu), "mean_fallback"


def initialize_threshold(
    intersection: IntersectionResult,
    auto: GaussianEstimate,
    cross: GaussianEstimate,
) -> float:
    """Initial decision threshold from the Gaussian intersection.

    Uses the intersection root when it falls between the two means and inside
    [0, 1], the valid threshold band; otherwise falls back to the midpoint of
    the means. The auto mean must exceed the cross mean.
    """
    return _threshold_with_source(intersection, auto, cross)[0]
