"""Truncated normal sampling and moments.

Synthetic worker populations (Section V-A of the paper) are drawn from a
multivariate normal *truncated to the unit hypercube* ``(0, 1)^d`` because
the coordinates are annotation accuracies.  This module provides:

* rejection sampling from a truncated multivariate normal, with a clipping
  fallback when the acceptance region is tiny — for one model, or for a
  block of models with one generator each, whose covariance projections
  and SVDs are then one stacked call each;
* univariate truncated-normal sampling and first moments, which the CPE
  estimator uses to turn a conditional normal over the target-domain
  accuracy into a prediction inside ``(0, 1)`` (Eq. 8).
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from repro.stats.mvn import MultivariateNormalModel, nearest_positive_definite
from repro.stats.rng import SeedLike, as_generator

_DEFAULT_MAX_REJECTION_ROUNDS = 200

#: Tolerance of ``Generator.multivariate_normal``'s positive-semidefinite check.
_PSD_TOL = 1e-8

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

    Each rejection round draws ``mean + standard_normal((m, d)) @ factor.T``
    with the factor of the projected covariance computed once: the formula
    and the draws of ``Generator.multivariate_normal``, which would redo
    the SVD every round.  This is :func:`sample_truncated_mvn_block` for
    one generator.

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
    return sample_truncated_mvn_block(
        model.mean, model.covariance[None], [generator], size, lower, upper, max_rejection_rounds
    )[0]


def _normal_factors(covariances: np.ndarray) -> np.ndarray:
    """Sampling factors of a ``(B, d, d)`` covariance stack, as ``multivariate_normal`` builds them.

    Each covariance is projected by :func:`nearest_positive_definite` and
    factored the way ``Generator.multivariate_normal`` (method ``"svd"``)
    factors it: ``u * sqrt(s)`` from its SVD, after the same
    positive-semidefinite check, which warns as ``check_valid="warn"``
    does.  The projection and the SVD are one stacked call each.
    """
    projected = nearest_positive_definite(covariances)
    u, s, vh = np.linalg.svd(projected)
    rebuilt = (np.swapaxes(vh, -1, -2) * s[..., None, :]) @ vh
    if not np.isclose(rebuilt, projected, rtol=_PSD_TOL, atol=_PSD_TOL).all():
        warnings.warn("covariance is not symmetric positive-semidefinite.", RuntimeWarning, stacklevel=3)
    return u * np.sqrt(s)[..., None, :]


def sample_truncated_mvn_block(
    mean: np.ndarray,
    covariances: np.ndarray,
    generators: Sequence[np.random.Generator],
    size: int,
    lower: float = 0.0,
    upper: float = 1.0,
    max_rejection_rounds: int = _DEFAULT_MAX_REJECTION_ROUNDS,
) -> np.ndarray:
    """``size`` truncated draws per generator, each from its own covariance.

    ``covariances`` is a ``(B, d, d)`` stack, one matrix per generator;
    ``mean`` is shared.  The result is ``(B, size, d)``, and slice ``b`` equals
    ``sample_truncated_mvn`` of the model ``(mean, covariances[b])`` with
    ``generators[b]`` bit for bit, leaving that generator in the same
    state.  Only the linear algebra is stacked (see
    :func:`_normal_factors`); each generator draws its own rejection
    rounds, ``mean + standard_normal((m, d)) @ factor.T`` as
    ``multivariate_normal`` computes them.
    """
    if len(covariances) != len(generators):
        raise ValueError(f"{len(covariances)} covariances for {len(generators)} generators")
    mean = np.asarray(mean, dtype=float)
    dimension = mean.shape[0]
    samples = np.empty((len(generators), size, dimension))
    for factor, generator, out in zip(_normal_factors(covariances), generators, samples):
        transform = factor.T
        filled = 0
        for _ in range(max_rejection_rounds):
            if filled == size:
                break
            batch = mean + generator.standard_normal((max((size - filled) * 2, 16), dimension)) @ transform
            good = batch[np.all((batch > lower) & (batch < upper), axis=1)][: size - filled]
            out[filled : filled + good.shape[0]] = good
            filled += good.shape[0]
        if filled < size:
            # Acceptance region too small: clip the leftover draws.
            batch = mean + generator.standard_normal((size - filled, dimension)) @ transform
            eps = 1e-6
            out[filled:] = np.clip(batch, lower + eps, upper - eps)
    return samples


__all__ = [
    "sample_truncated_normal",
    "sample_truncated_mvn",
    "sample_truncated_mvn_block",
    "truncated_normal_mean",
    "truncated_normal_variance",
]
