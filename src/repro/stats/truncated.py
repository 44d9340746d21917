"""Truncated normal sampling and moments.

Synthetic worker populations (Section V-A of the paper) are drawn from a
multivariate normal *truncated to the unit hypercube* ``(0, 1)^d`` because
the coordinates are annotation accuracies.  This module provides:

* rejection sampling from a truncated multivariate normal, with a clipping
  fallback when the acceptance region is tiny;
* univariate truncated-normal sampling and first moments, which the CPE
  estimator uses to turn a conditional normal over the target-domain
  accuracy into a prediction inside ``(0, 1)`` (Eq. 8).
"""

from __future__ import annotations


import numpy as np
from scipy.special import ndtr, ndtri

from repro.stats.mvn import MultivariateNormalModel, nearest_positive_definite
from repro.stats.rng import SeedLike, as_generator

_DEFAULT_MAX_REJECTION_ROUNDS = 200

#: ``sqrt(2 pi)``, computed the way ``scipy.stats.norm`` computes it.
_NORM_PDF_C = np.sqrt(2 * np.pi)


def _on_1d(func, x):
    """``func`` applied to ``x`` as a 1-d float64 array, returned in ``x``'s shape.

    The standard normal's cdf, ppf and pdf below equal ``scipy.stats.norm``
    bit for bit (whose import costs ~20 MB of resident memory).  Like scipy
    they evaluate on arrays: numpy's scalar math can round 1 ulp away from
    its array loops.  0-d input comes back as a numpy scalar, as from scipy.
    """
    x = np.asarray(x, dtype=np.float64)
    return func(x.reshape(-1)).reshape(x.shape)[()]


def _norm_cdf(x):
    return _on_1d(ndtr, x)


def _norm_ppf(q):
    return _on_1d(ndtri, q)


def _norm_pdf(x):
    return _on_1d(lambda flat: np.exp(-flat**2 / 2.0) / _NORM_PDF_C, x)


def sample_truncated_normal(
    mean: float,
    std: float,
    lower: float,
    upper: float,
    size: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Sample from a univariate normal truncated to ``[lower, upper]``."""
    if upper <= lower:
        raise ValueError(f"upper ({upper}) must exceed lower ({lower})")
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    generator = as_generator(rng)
    a = (lower - mean) / std
    b = (upper - mean) / std
    u = generator.uniform(size=size)
    cdf_a = _norm_cdf(a)
    cdf_b = _norm_cdf(b)
    # Guard against a degenerate window (mean far outside the bounds).
    if cdf_b - cdf_a < 1e-12:
        return np.clip(generator.normal(mean, std, size=size), lower, upper)
    samples = _norm_ppf(cdf_a + u * (cdf_b - cdf_a))
    return mean + std * samples


def truncated_normal_mean(mean: float, std: float, lower: float, upper: float) -> float:
    """First moment of a normal truncated to ``[lower, upper]``.

    This is the value the CPE estimator reports as the predicted
    target-domain accuracy: the conditional normal of Eq. (8) restricted to
    the valid accuracy range.
    """
    if std <= 0:
        return float(np.clip(mean, lower, upper))
    a = (lower - mean) / std
    b = (upper - mean) / std
    denom = _norm_cdf(b) - _norm_cdf(a)
    if denom < 1e-12:
        return float(np.clip(mean, lower, upper))
    numer = _norm_pdf(a) - _norm_pdf(b)
    return float(mean + std * numer / denom)


def _x_pdf(x: float) -> float:
    """``x * phi(x)``, taken as its limit 0 at an infinite bound."""
    return x * _norm_pdf(x) if np.isfinite(x) else 0.0


def truncated_normal_variance(mean: float, std: float, lower: float, upper: float) -> float:
    """Variance of a normal truncated to ``[lower, upper]`` (either bound may be infinite)."""
    if std <= 0:
        return 0.0
    a = (lower - mean) / std
    b = (upper - mean) / std
    denom = _norm_cdf(b) - _norm_cdf(a)
    if denom < 1e-12:
        return 0.0
    phi_a, phi_b = _norm_pdf(a), _norm_pdf(b)
    term1 = (_x_pdf(a) - _x_pdf(b)) / denom
    term2 = ((phi_a - phi_b) / denom) ** 2
    return float(std**2 * (1.0 + term1 - term2))


def sample_truncated_mvn(
    model: MultivariateNormalModel,
    size: int,
    rng: SeedLike = None,
    lower: float = 0.0,
    upper: float = 1.0,
    max_rejection_rounds: int = _DEFAULT_MAX_REJECTION_ROUNDS,
) -> np.ndarray:
    """Sample from a multivariate normal truncated to a hypercube.

    Rejection sampling is exact; when the acceptance probability is very low
    (which can happen for extreme synthetic configurations) the remaining
    samples fall back to coordinate-wise clipping so dataset generation never
    stalls.  The fallback is logged in the returned array only implicitly —
    callers that care can verify all coordinates are interior points.

    Parameters
    ----------
    model:
        The (untruncated) multivariate normal to truncate.
    size:
        Number of samples to return.
    lower, upper:
        Hypercube bounds applied to every coordinate.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    generator = as_generator(rng)
    if size == 0:
        return np.empty((0, model.dimension))

    covariance = nearest_positive_definite(model.covariance)
    accepted = np.empty((0, model.dimension))
    remaining = size
    for _ in range(max_rejection_rounds):
        if remaining <= 0:
            break
        batch = generator.multivariate_normal(model.mean, covariance, size=max(remaining * 2, 16))
        in_box = np.all((batch > lower) & (batch < upper), axis=1)
        good = batch[in_box]
        if good.shape[0] > 0:
            take = min(remaining, good.shape[0])
            accepted = np.vstack([accepted, good[:take]])
            remaining -= take
    if remaining > 0:
        # Acceptance region too small: clip the leftover draws.
        batch = generator.multivariate_normal(model.mean, covariance, size=remaining)
        eps = 1e-6
        accepted = np.vstack([accepted, np.clip(batch, lower + eps, upper - eps)])
    return accepted[:size]


__all__ = [
    "sample_truncated_normal",
    "sample_truncated_mvn",
    "truncated_normal_mean",
    "truncated_normal_variance",
]
