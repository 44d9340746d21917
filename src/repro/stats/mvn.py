"""Multivariate normal model over per-domain worker accuracies.

The paper models each worker's accuracy vector over the ``D`` prior domains
plus the target domain as a draw from a ``(D+1)``-dimensional multivariate
normal ``N(mu, Sigma)`` (Eq. 1-2).  The CPE estimator needs three
operations on this model:

* build a valid covariance matrix from interpretable parameters
  (standard deviations and pairwise correlations);
* compute the conditional distribution of the target-domain accuracy given a
  worker's prior-domain profile (the ``mu_bar`` / ``Sigma_bar`` of Eq. 5);
* pack and unpack the free parameters into a flat vector so that the
  gradient-descent MLE of Eq. (6)-(7) can operate on it.

The class below keeps the canonical representation as ``(mu, sigma, rho)``
rather than a raw covariance so every gradient step yields a well-formed
(symmetric, unit-diagonal-correlation) model; a positive-definite projection
is applied when correlations drift towards an invalid configuration.

Whether a packed vector's correlations need that projection is decided in
one place, :meth:`MultivariateNormalModel.canonicalise`: it clips a
``(B, P)`` matrix of packed vectors, runs one batched Cholesky check and
projects only the rows that fail.  Its rows are *canonical* — they pass the
check and canonicalise to themselves — so
:meth:`MultivariateNormalModel.canonical_moments` reads them without
checking again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

_MIN_SIGMA = 1e-4
_MAX_ABS_RHO = 0.999
_PD_EPS = 1e-8
_SOLVE_JITTER = 1e-8


@lru_cache(maxsize=None)
def _upper_indices(dimension: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(dimension, k=1)``, built once per dimension (read-only)."""
    rows, cols = np.triu_indices(dimension, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def _identity(dimension: int) -> np.ndarray:
    """``np.eye(dimension)``, built once per dimension (read-only)."""
    eye = np.eye(dimension)
    eye.flags.writeable = False
    return eye


def _correlation_stack(upper: np.ndarray, dimension: int) -> np.ndarray:
    """``(B, d, d)`` unit-diagonal symmetric matrices from ``(B, d(d-1)/2)`` upper triangles."""
    rhos = np.broadcast_to(_identity(dimension), (upper.shape[0], dimension, dimension)).copy()
    rows, cols = _upper_indices(dimension)
    rhos[:, rows, cols] = upper
    rhos[:, cols, rows] = upper
    return rhos


def _passes_cholesky_check(rhos: np.ndarray) -> bool:
    """Whether every correlation matrix in ``rhos`` is usable as it stands.

    This is the check :meth:`MultivariateNormalModel._normalise_rho` applies
    before it decides to project a correlation matrix.
    """
    try:
        np.linalg.cholesky(rhos + _PD_EPS * _identity(rhos.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _failing_rows(rhos: np.ndarray) -> List[int]:
    """Indices of the ``(B, d, d)`` correlation matrices that fail the Cholesky check.

    One batched check when every matrix passes (the common case); a failing
    batch of more than one is then checked row by row to find the culprits.
    """
    if _passes_cholesky_check(rhos):
        return []
    if rhos.shape[0] == 1:
        return [0]
    return [row for row in range(rhos.shape[0]) if not _passes_cholesky_check(rhos[row])]


def _projected_correlation(rho: np.ndarray) -> np.ndarray:
    """The valid correlation matrix nearest a symmetric unit-diagonal ``rho``.

    Eigenvalue clipping at ``1e-4``, then the diagonal re-normalised to one.
    If that leaves a near-collinear pair beyond the correlation bound, all
    correlations shrink by one factor towards zero instead of being clipped
    one by one: a convex blend with the identity stays positive definite,
    whereas clipping a single entry can break it.  So the result always
    passes the Cholesky check.
    """
    projected = nearest_positive_definite(rho, eps=1e-4)
    scale = np.sqrt(np.clip(np.diag(projected), _MIN_SIGMA**2, None))
    projected = projected / np.outer(scale, scale)
    largest = np.max(np.abs(projected - _identity(rho.shape[0])))
    if largest > _MAX_ABS_RHO:
        projected *= _MAX_ABS_RHO / largest
    projected = np.clip(projected, -_MAX_ABS_RHO, _MAX_ABS_RHO)
    np.fill_diagonal(projected, 1.0)
    return projected


def valid_correlations(upper: np.ndarray, dimension: int) -> np.ndarray:
    """``(B, d, d)`` valid correlation matrices from ``(B, d(d-1)/2)`` upper triangles.

    Each entry is clipped to the correlation bound; one batched Cholesky
    check finds the matrices that are not usable as they stand, and only
    those are projected (:func:`_projected_correlation`), each as computed
    — so a projected matrix keeps the last-bit asymmetry of its
    eigen-decomposition.  Row ``b`` is the ``rho`` that
    :class:`MultivariateNormalModel` keeps for the symmetric matrix with
    upper triangle ``upper[b]``.
    """
    rhos = _correlation_stack(np.clip(upper, -_MAX_ABS_RHO, _MAX_ABS_RHO), dimension)
    for row in _failing_rows(rhos):
        rhos[row] = _projected_correlation(rhos[row])
    return rhos


def _robust_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` with a pseudo-inverse fallback.

    Gradient perturbations can push a conditioning sub-covariance to the
    edge of singularity; the pseudo-inverse keeps the likelihood evaluation
    finite there instead of aborting the whole update.
    """
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(matrix) @ rhs


def nearest_positive_definite(matrix: np.ndarray, eps: float = _PD_EPS) -> np.ndarray:
    """Project a symmetric matrix onto the positive-definite cone.

    Eigenvalues below ``eps`` are clipped.  The input is symmetrised first so
    small numerical asymmetries from finite-difference updates do not
    accumulate.  A ``(B, d, d)`` stack is projected matrix by matrix in one
    stacked ``eigh``, each slice bit for bit as it would be on its own.
    """
    sym = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    clipped = np.clip(eigenvalues, eps, None)
    return (eigenvectors * clipped[..., None, :]) @ np.swapaxes(eigenvectors, -1, -2)


def correlation_from_covariance(covariance: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a covariance matrix into standard deviations and correlations."""
    sigma = np.sqrt(np.clip(np.diag(covariance), _MIN_SIGMA**2, None))
    outer = np.outer(sigma, sigma)
    rho = covariance / outer
    np.fill_diagonal(rho, 1.0)
    rho = np.clip(rho, -_MAX_ABS_RHO, _MAX_ABS_RHO)
    np.fill_diagonal(rho, 1.0)
    return sigma, rho


@dataclass
class MultivariateNormalModel:
    """A ``(sigma, rho)``-parameterised multivariate normal distribution.

    Attributes
    ----------
    mean:
        Length-``d`` mean vector (per-domain mean accuracy).
    sigma:
        Length-``d`` vector of standard deviations.
    rho:
        ``d x d`` correlation matrix with unit diagonal.
    """

    mean: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).copy()
        self.sigma = np.asarray(self.sigma, dtype=float).copy()
        self.rho = np.asarray(self.rho, dtype=float).copy()
        d = self.mean.shape[0]
        if self.mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        if self.sigma.shape != (d,):
            raise ValueError(f"sigma must have shape ({d},), got {self.sigma.shape}")
        if self.rho.shape != (d, d):
            raise ValueError(f"rho must have shape ({d}, {d}), got {self.rho.shape}")
        self.sigma = np.clip(self.sigma, _MIN_SIGMA, None)
        self._normalise_rho()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_covariance(cls, mean: Sequence[float], covariance: np.ndarray) -> "MultivariateNormalModel":
        """Build a model from a raw covariance matrix (Eq. 2 form)."""
        covariance = nearest_positive_definite(np.asarray(covariance, dtype=float))
        sigma, rho = correlation_from_covariance(covariance)
        return cls(mean=np.asarray(mean, dtype=float), sigma=sigma, rho=rho)

    @classmethod
    def from_moments(
        cls,
        means: Sequence[float],
        stds: Sequence[float],
        correlations: Optional[np.ndarray] = None,
    ) -> "MultivariateNormalModel":
        """Build a model from per-domain means/stds and an optional correlation matrix.

        When ``correlations`` is ``None`` the domains start uncorrelated, which
        matches the paper's "correlation is not well-known before training"
        premise; the CPE gradient updates then learn the correlations.
        """
        means = np.asarray(means, dtype=float)
        stds = np.asarray(stds, dtype=float)
        if correlations is None:
            correlations = np.eye(means.shape[0])
        return cls(mean=means, sigma=stds, rho=np.asarray(correlations, dtype=float))

    def copy(self) -> "MultivariateNormalModel":
        return MultivariateNormalModel(self.mean.copy(), self.sigma.copy(), self.rho.copy())

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Number of modelled domains (``D + 1`` in the paper's notation)."""
        return self.mean.shape[0]

    @property
    def covariance(self) -> np.ndarray:
        """The covariance matrix ``Sigma`` of Eq. (2)."""
        outer = np.outer(self.sigma, self.sigma)
        return self.rho * outer

    def _normalise_rho(self) -> None:
        """Clamp correlations and re-project to a valid correlation matrix.

        The projection operates on the correlation matrix itself (eigenvalue
        clipping followed by re-normalising the diagonal to one), so the
        configured standard deviations are preserved exactly — important for
        synthetic dataset generation, where uniform-random correlations are
        frequently inconsistent but the per-domain moments must match
        Table IV.
        """
        rows, cols = _upper_indices(self.dimension)
        symmetric = 0.5 * (self.rho + self.rho.T)
        self.rho = valid_correlations(symmetric[None, rows, cols], self.dimension)[0]

    # ------------------------------------------------------------------ #
    # Conditional distribution (mu_bar, Sigma_bar of Eq. 5)
    # ------------------------------------------------------------------ #
    def conditional(
        self,
        observed_values: np.ndarray,
        observed_indices: Sequence[int],
        target_index: int,
    ) -> Tuple[float, float]:
        """Conditional mean and variance of one coordinate given others.

        Parameters
        ----------
        observed_values:
            Values of the observed coordinates (a worker's prior-domain
            accuracies ``h_i``).
        observed_indices:
            Indices of the observed coordinates inside the model.
        target_index:
            Index of the coordinate to predict (the target domain).

        Returns
        -------
        (mean, variance):
            Parameters of the univariate conditional normal.
        """
        observed_values = np.asarray(observed_values, dtype=float)
        observed_indices = list(observed_indices)
        if target_index in observed_indices:
            raise ValueError("target_index must not be among observed_indices")
        if len(observed_values) != len(observed_indices):
            raise ValueError("observed_values and observed_indices must have equal length")

        cov = self.covariance
        if not observed_indices:
            return float(self.mean[target_index]), float(cov[target_index, target_index])

        obs = np.asarray(observed_indices, dtype=int)
        sigma_oo = cov[np.ix_(obs, obs)]
        sigma_to = cov[target_index, obs]
        sigma_tt = cov[target_index, target_index]
        mu_o = self.mean[obs]
        mu_t = self.mean[target_index]

        jittered = sigma_oo + _SOLVE_JITTER * _identity(len(obs))
        solve = _robust_solve(jittered, observed_values - mu_o)
        cond_mean = mu_t + float(sigma_to @ solve)
        weights = _robust_solve(jittered, sigma_to)
        cond_var = float(sigma_tt - sigma_to @ weights)
        cond_var = max(cond_var, _MIN_SIGMA**2)
        return cond_mean, cond_var

    def conditional_batch(
        self,
        observed_matrix: np.ndarray,
        observed_indices: Sequence[int],
        target_index: int,
    ) -> Tuple[np.ndarray, float]:
        """Vectorised :meth:`conditional` for a batch of workers.

        All workers must share the same set of observed domains (the common
        case); the conditional variance is then identical for every worker.

        Returns
        -------
        (means, variance):
            ``means`` has one entry per row of ``observed_matrix``.
        """
        observed_matrix = np.atleast_2d(np.asarray(observed_matrix, dtype=float))
        obs = np.asarray(list(observed_indices), dtype=int)
        if obs.size == 0:
            means = np.full(observed_matrix.shape[0], self.mean[target_index])
            return means, float(self.covariance[target_index, target_index])

        cov = self.covariance
        sigma_oo = cov[np.ix_(obs, obs)] + _SOLVE_JITTER * _identity(obs.size)
        sigma_to = cov[target_index, obs]
        sigma_tt = cov[target_index, target_index]
        weights = _robust_solve(sigma_oo, sigma_to)
        cond_means = self.mean[target_index] + (observed_matrix - self.mean[obs]) @ weights
        cond_var = float(sigma_tt - sigma_to @ weights)
        return cond_means, max(cond_var, _MIN_SIGMA**2)

    # ------------------------------------------------------------------ #
    # Densities and sampling
    # ------------------------------------------------------------------ #
    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Log density of the full joint at one or more points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cov = nearest_positive_definite(self.covariance)
        d = self.dimension
        chol = np.linalg.cholesky(cov)
        diff = points - self.mean
        solved = np.linalg.solve(chol, diff.T)
        quad = np.sum(solved**2, axis=0)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        return -0.5 * (quad + log_det + d * np.log(2.0 * np.pi))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` samples from the (untruncated) joint."""
        return rng.multivariate_normal(self.mean, nearest_positive_definite(self.covariance), size=size)

    # ------------------------------------------------------------------ #
    # Parameter vectorisation (for gradient-descent MLE)
    # ------------------------------------------------------------------ #
    def pack_parameters(self) -> np.ndarray:
        """Flatten ``(mu, sigma, upper-triangular rho)`` into one vector."""
        return np.concatenate([self.mean, self.sigma, self.rho[_upper_indices(self.dimension)]])

    @staticmethod
    def parameter_slices(dimension: int) -> Tuple[slice, slice, slice]:
        """Slices of the packed vector for mean, sigma and correlations."""
        n_corr = dimension * (dimension - 1) // 2
        return (
            slice(0, dimension),
            slice(dimension, 2 * dimension),
            slice(2 * dimension, 2 * dimension + n_corr),
        )

    @classmethod
    def unpack_parameters(cls, vector: np.ndarray, dimension: int) -> "MultivariateNormalModel":
        """Inverse of :meth:`pack_parameters` with validity clamping."""
        vector = np.asarray(vector, dtype=float)
        mean_s, sigma_s, rho_s = cls.parameter_slices(dimension)
        mean = vector[mean_s]
        sigma = np.clip(vector[sigma_s], _MIN_SIGMA, None)
        rho = _correlation_stack(np.clip(vector[None, rho_s], -_MAX_ABS_RHO, _MAX_ABS_RHO), dimension)[0]
        return cls(mean=mean, sigma=sigma, rho=rho)

    @classmethod
    def canonicalise(cls, matrix: np.ndarray, dimension: int) -> np.ndarray:
        """Each row of a ``(B, P)`` packed-parameter matrix in canonical form.

        Row ``b`` of the result is
        ``unpack_parameters(matrix[b], dimension).pack_parameters()``: the
        standard deviations and correlations clipped, and the correlations
        projected where the clipped matrix fails the Cholesky check.  The
        clip is vectorised, the check is one batched call, and only the
        failing rows are projected.  Canonical rows pass the check, so
        canonicalising them again returns them bit for bit.
        """
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        _, sigma_s, rho_s = cls.parameter_slices(dimension)
        canonical = matrix.copy()
        canonical[:, sigma_s] = np.clip(matrix[:, sigma_s], _MIN_SIGMA, None)
        rows, cols = _upper_indices(dimension)
        canonical[:, rho_s] = valid_correlations(matrix[:, rho_s], dimension)[:, rows, cols]
        return canonical

    @classmethod
    def canonical_moments(
        cls, matrix: np.ndarray, dimension: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(means, sigmas, rhos)`` of the canonical rows of a ``(B, P)`` matrix, unchecked.

        The rows must come from :meth:`canonicalise`; nothing is clipped or
        checked here.  The arrays then equal ``unpack_parameters(row)``'s
        ``mean``, ``sigma`` and ``rho`` (``rho`` rebuilt symmetric from its
        upper triangle).
        """
        mean_s, sigma_s, rho_s = cls.parameter_slices(dimension)
        return matrix[:, mean_s], matrix[:, sigma_s], _correlation_stack(matrix[:, rho_s], dimension)

    @staticmethod
    def conditional_batch_stacked(
        means: np.ndarray,
        covariances: np.ndarray,
        observed_matrix: np.ndarray,
        observed_indices: Sequence[int],
        target_index: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`conditional_batch` for a stack of parameter settings at once.

        Parameters
        ----------
        means, covariances:
            ``(B, d)`` mean vectors and ``(B, d, d)`` covariance matrices —
            one model per row of a canonical packed-parameter matrix (see
            :meth:`canonical_moments`).
        observed_matrix:
            ``(R, m)`` prior-domain accuracies of ``R`` workers sharing the
            same observed-domain pattern.
        observed_indices, target_index:
            As in :meth:`conditional_batch`.

        Returns
        -------
        (cond_means, cond_vars):
            ``(B, R)`` conditional means and ``(B,)`` conditional variances
            (one per parameter setting; shared by the workers of a pattern).
        """
        means = np.atleast_2d(np.asarray(means, dtype=float))
        covariances = np.asarray(covariances, dtype=float)
        observed_matrix = np.atleast_2d(np.asarray(observed_matrix, dtype=float))
        obs = np.asarray(list(observed_indices), dtype=int)
        n_batch = means.shape[0]
        n_rows = observed_matrix.shape[0]

        if obs.size == 0:
            cond_means = np.broadcast_to(means[:, target_index, None], (n_batch, n_rows)).copy()
            cond_vars = covariances[:, target_index, target_index].copy()
            return cond_means, np.maximum(cond_vars, _MIN_SIGMA**2)

        sigma_oo = covariances[:, obs[:, None], obs[None, :]] + _SOLVE_JITTER * _identity(obs.size)
        sigma_to = covariances[:, target_index, :][:, obs]
        sigma_tt = covariances[:, target_index, target_index]
        try:
            weights = np.linalg.solve(sigma_oo, sigma_to[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Mirror _robust_solve slice by slice: only the singular systems
            # fall back to the pseudo-inverse.
            weights = np.stack(
                [_robust_solve(sigma_oo[index], sigma_to[index]) for index in range(n_batch)]
            )
        centered = observed_matrix[None, :, :] - means[:, None, obs]
        cond_means = means[:, target_index, None] + np.einsum("brm,bm->br", centered, weights)
        cond_vars = sigma_tt - np.einsum("bm,bm->b", sigma_to, weights)
        return cond_means, np.maximum(cond_vars, _MIN_SIGMA**2)

    @staticmethod
    def conditional_pullback(
        mean: np.ndarray,
        covariance: np.ndarray,
        observed_matrix: np.ndarray,
        observed_indices: Sequence[int],
        target_index: int,
    ) -> Optional[Tuple[np.ndarray, float, Callable[[np.ndarray, float], Tuple[np.ndarray, np.ndarray]]]]:
        """:meth:`conditional_batch` for one model, with its reverse-mode derivative.

        Returns ``(cond_means, cond_var, pullback)``, or ``None`` when the
        conditioning system is singular.  ``pullback(grad_means, grad_var)``
        maps the gradient of a scalar with respect to the ``(R,)``
        conditional means and the shared conditional variance to its
        gradient with respect to ``mean`` and ``covariance``, each
        covariance entry taken as independent (see
        :meth:`parameter_gradient`).  With ``S`` the jittered observed block,
        ``s`` the target-observed covariances, ``w = S^-1 s``, ``g`` the
        mean gradients, ``G_v`` the variance gradient and
        ``a = sum_i g_i (x_i - mu_o)``::

            d/d mu_t = sum_i g_i         d/d mu_o = -(sum_i g_i) w
            d/d s    = S^-1 a - 2 G_v w  d/d S    = -(S^-1 a) w^T + G_v w w^T
            d/d Sigma_tt = G_v           (0 where the variance floor binds)
        """
        obs = np.asarray(list(observed_indices), dtype=int)
        dimension = mean.shape[0]
        n_rows = observed_matrix.shape[0]
        sigma_tt = covariance[target_index, target_index]
        if obs.size == 0:
            weights = None
            cond_means = np.full(n_rows, mean[target_index])
            variance = sigma_tt
        else:
            system = covariance[np.ix_(obs, obs)] + _SOLVE_JITTER * _identity(obs.size)
            sigma_to = covariance[target_index, obs]
            try:
                weights = np.linalg.solve(system, sigma_to)
            except np.linalg.LinAlgError:
                return None
            centered = observed_matrix - mean[obs]
            cond_means = mean[target_index] + centered @ weights
            variance = sigma_tt - sigma_to @ weights
        floored = variance <= _MIN_SIGMA**2

        def pullback(grad_means: np.ndarray, grad_var: float) -> Tuple[np.ndarray, np.ndarray]:
            grad_var = 0.0 if floored else grad_var
            total = float(np.sum(grad_means))
            grad_mean = np.zeros(dimension)
            grad_cov = np.zeros((dimension, dimension))
            grad_mean[target_index] = total
            grad_cov[target_index, target_index] = grad_var
            if weights is not None:
                solved = np.linalg.solve(system, centered.T @ grad_means)
                grad_mean[obs] = -total * weights
                grad_cov[target_index, obs] = solved - 2.0 * grad_var * weights
                grad_cov[np.ix_(obs, obs)] = np.outer(grad_var * weights - solved, weights)
            return grad_mean, grad_cov

        return cond_means, max(float(variance), _MIN_SIGMA**2), pullback

    @staticmethod
    def parameter_gradient(
        sigma: np.ndarray,
        rho: np.ndarray,
        grad_mean: np.ndarray,
        grad_cov: np.ndarray,
    ) -> np.ndarray:
        """Chain a gradient with respect to ``(mean, covariance)`` back to the packed vector.

        ``sigma`` and ``rho`` are a canonical row's (see
        :meth:`canonical_moments`); ``grad_cov`` holds the derivative with
        respect to every covariance entry taken as independent, so it need
        not be symmetric.  Through ``Sigma_ab = rho_ab sigma_a sigma_b`` each
        correlation collects both of its entries.
        """
        rows, cols = _upper_indices(sigma.shape[0])
        weighted = grad_cov * rho
        grad_sigma = (weighted + weighted.T) @ sigma
        grad_rho = (grad_cov[rows, cols] + grad_cov[cols, rows]) * (sigma[rows] * sigma[cols])
        return np.concatenate([grad_mean, grad_sigma, grad_rho])

    # ------------------------------------------------------------------ #
    # Marginalisation helpers for workers with missing prior domains
    # ------------------------------------------------------------------ #
    def marginal(self, indices: Sequence[int]) -> "MultivariateNormalModel":
        """Marginal model over a subset of domains.

        Used when a worker has no historical record on some prior domain:
        per Section IV-E of the paper, the corresponding rows/columns are
        simply dropped.
        """
        idx = np.asarray(list(indices), dtype=int)
        return MultivariateNormalModel(
            mean=self.mean[idx],
            sigma=self.sigma[idx],
            rho=self.rho[np.ix_(idx, idx)],
        )


__all__ = [
    "MultivariateNormalModel",
    "nearest_positive_definite",
    "correlation_from_covariance",
    "valid_correlations",
]
