"""Cross-domain-aware Performance Estimation (CPE, Algorithm 1).

The estimator maintains a ``(D+1)``-dimensional multivariate normal over
worker accuracies — ``D`` prior domains plus the target domain — and, after
every elimination round, updates its parameters by gradient ascent on the
marginal log-likelihood of the observed learning-task answers (Eq. 5-7):

    log L = sum_i log  integral_0^1  h^{C_i} (1 - h)^{X_i}
                                      N(h; mu_bar_i, sigma_bar^2)  dh

where ``(C_i, X_i)`` are worker ``i``'s correct/wrong counts in the round
and ``(mu_bar_i, sigma_bar^2)`` the conditional distribution of the target
accuracy given the worker's prior-domain profile.  Predictions (Eq. 8) are
the conditional expectation of the target accuracy under the fitted model,
restricted to the valid accuracy range ``(0, 1)``.

Implementation notes (DESIGN.md §6):

* the integral is evaluated with Gauss--Legendre quadrature in log space so
  that late rounds with hundreds of tasks per worker do not underflow;
* ``Sigma`` is parameterised by standard deviations and correlations;
* workers with missing prior domains are grouped by their observed-domain
  pattern and handled with the corresponding marginal model (Section IV-E);
* the gradient loop runs on a vectorised engine: a :class:`RoundData` object
  caches everything in Eq. (5) that does not depend on the parameters
  (pattern grouping, the ``(workers x nodes)`` binomial log-table, the
  quadrature log-tables) once per :meth:`update`.  The gradient is the
  closed form of Eq. (5) — the backpropagation the paper uses, written
  out: one forward pass builds a ``(workers x nodes)`` table and one
  backward pass chains it through the Schur-complement conditioning and
  the ``(sigma, rho)`` parameterisation
  (:meth:`CrossDomainPerformanceEstimator.objective_gradient`).  Where a
  conditioning solve is singular it falls back to central finite
  differences, evaluated as one stacked ``(2P x workers x nodes)``
  computation.  The scalar likelihood with a finite-difference gradient
  that this engine replaced is kept as a test oracle
  (``tests/oracles/cpe.py``), which replaces the update's
  ``(objective, gradient)`` pair through
  :meth:`CrossDomainPerformanceEstimator._objective_and_gradient`;
* the update asks "must this candidate's correlations be projected?" once
  per candidate, in its projection step
  (:meth:`MultivariateNormalModel.canonicalise`).  The line search and the
  closed-form gradient then read the canonical parameters without checking
  them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from repro.stats.mvn import MultivariateNormalModel
from repro.stats.optimize import finite_difference_gradient_batch, gradient_descent
from repro.stats.quadrature import GaussLegendreRule, unit_interval_rule
from repro.stats.rng import SeedLike, as_generator
from repro.stats.truncated import truncated_normal_mean


@dataclass(frozen=True)
class RoundData:
    """Parameter-independent precomputation of one round's Eq. (5) likelihood.

    Everything the gradient loop re-uses across its ``G`` gradient and
    line-search evaluations but that depends only on the *data* of the
    round — not on the model parameters — is computed once here:

    Attributes
    ----------
    accuracies, correct, wrong:
        The validated inputs of the round (``(W, D)`` historical profiles
        and per-worker correct/wrong counts).
    patterns:
        One ``(observed_domains, rows, observed_values)`` triple per
        missing-domain pattern: the observed prior-domain indices, the
        worker rows sharing them, and the corresponding ``(rows, m)``
        accuracy submatrix (Section IV-E grouping, done once instead of
        once per objective call).
    binomial_term:
        ``(W, nodes)`` table ``C_i log h_j + X_i log(1 - h_j) + log w_j``
        — the full parameter-independent part of the log-integrand,
        quadrature log-weights folded in.
    rule:
        The shared Gauss--Legendre rule (its log tables are cached on the
        rule itself).
    """

    accuracies: np.ndarray
    correct: np.ndarray
    wrong: np.ndarray
    patterns: Tuple[Tuple[Tuple[int, ...], np.ndarray, np.ndarray], ...]
    binomial_term: np.ndarray
    rule: GaussLegendreRule

    @property
    def n_workers(self) -> int:
        return self.accuracies.shape[0]


@dataclass
class CPEConfig:
    """Configuration of the CPE estimator.

    Attributes
    ----------
    initial_target_mean:
        Initial mean accuracy assumed for the target domain (the paper's
        ``a_T``; 0.5 for Yes/No tasks).
    initial_target_std:
        Optional explicit initial standard deviation for the target domain;
        when ``None`` the mean of the prior-domain standard deviations is
        used (Section V-C).
    learning_rate_mean, learning_rate_cov:
        Gradient-descent step sizes for the mean vector and the covariance
        parameters (standard deviations + correlations).  The paper reports
        ``r1 = 1e-7`` / ``r2 = 1e-4`` for its autodiff parameterisation;
        the per-worker, norm-capped gradient of the ``(sigma, rho)``
        parameterisation used here is scaled differently, so the defaults
        are re-calibrated while keeping ``r1 << r2`` (the mean moves much
        more slowly than the covariance).
    n_epochs:
        Number of gradient steps per round (the paper's ``G = 50``).
    n_quadrature_nodes:
        Gauss--Legendre nodes for the likelihood integral.
    correlation_range:
        Range of the uniform-random correlation initialisation.
    update_prior_moments:
        When ``False`` the prior-domain means/standard deviations are frozen
        at their empirical values and only the target moments and the
        correlations are learned.
    min_conditional_std:
        Floor on the conditional standard deviation of the target accuracy
        given a profile.  The randomly initialised correlations can imply an
        (unwarranted) near-deterministic cross-domain prediction; the floor
        encodes that cross-domain extrapolation is never trusted beyond this
        resolution, so observed counts always retain influence on the
        posterior.  The objective has a kink where a conditional variance
        meets the floor: the closed-form gradient takes the one-sided
        slope there, while central differences straddling it average two
        slopes, so the two can disagree at O(1) on such a parameter vector.
    posterior:
        ``"counts"`` (default) predicts the posterior mean of the target
        accuracy given *both* the historical profile and the current round's
        correct/wrong counts — the full Bayesian read of the Eq. (5) model,
        in which the cross-domain prior smooths the raw observations.
        ``"prior"`` reproduces the literal form of Eq. (8) (conditional
        expectation given the profile only) and is kept for ablations.
    """

    initial_target_mean: float = 0.5
    initial_target_std: Optional[float] = None
    learning_rate_mean: float = 1e-3
    learning_rate_cov: float = 1e-2
    n_epochs: int = 50
    n_quadrature_nodes: int = 64
    correlation_range: Tuple[float, float] = (0.0, 1.0)
    update_prior_moments: bool = True
    posterior: str = "counts"
    min_conditional_std: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_target_mean < 1.0:
            raise ValueError("initial_target_mean must lie in (0, 1)")
        if self.min_conditional_std < 0:
            raise ValueError("min_conditional_std must be non-negative")
        if self.initial_target_std is not None and self.initial_target_std <= 0:
            raise ValueError("initial_target_std must be positive")
        if self.learning_rate_mean < 0 or self.learning_rate_cov < 0:
            raise ValueError("learning rates must be non-negative")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if self.n_quadrature_nodes < 2:
            raise ValueError("n_quadrature_nodes must be at least 2")
        if self.posterior not in ("prior", "counts"):
            raise ValueError("posterior must be 'prior' or 'counts'")


class CrossDomainPerformanceEstimator:
    """Online maximum-likelihood estimator of the cross-domain accuracy model."""

    def __init__(
        self,
        prior_domains: Sequence[str],
        config: Optional[CPEConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        if not prior_domains:
            raise ValueError("at least one prior domain is required")
        self._prior_domains = list(prior_domains)
        self._config = config or CPEConfig()
        self._rng = as_generator(rng)
        self._rule = unit_interval_rule(self._config.n_quadrature_nodes)
        self._model: Optional[MultivariateNormalModel] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> CPEConfig:
        return self._config

    @property
    def prior_domains(self) -> List[str]:
        return list(self._prior_domains)

    @property
    def n_prior_domains(self) -> int:
        return len(self._prior_domains)

    @property
    def target_index(self) -> int:
        """Index of the target domain within the joint model (always last)."""
        return self.n_prior_domains

    @property
    def model(self) -> MultivariateNormalModel:
        """The current multivariate-normal model (raises before initialisation)."""
        if self._model is None:
            raise RuntimeError("CPE estimator is not initialised; call initialize() first")
        return self._model

    @property
    def is_initialized(self) -> bool:
        return self._model is not None

    def estimated_correlations(self) -> Dict[str, float]:
        """Fitted correlation between each prior domain and the target domain."""
        model = self.model
        return {
            domain: float(model.rho[index, self.target_index])
            for index, domain in enumerate(self._prior_domains)
        }

    # ------------------------------------------------------------------ #
    # Initialisation (Section V-C)
    # ------------------------------------------------------------------ #
    def initialize(self, historical_accuracies: np.ndarray) -> MultivariateNormalModel:
        """Initialise ``N(mu, Sigma)`` from the workers' historical profiles.

        Prior-domain means/standard deviations come from the observed
        columns; the target mean is ``initial_target_mean``; the target
        standard deviation is the average of the prior ones; correlations
        are drawn uniformly from ``correlation_range``.
        """
        accuracies = np.atleast_2d(np.asarray(historical_accuracies, dtype=float))
        if accuracies.shape[1] != self.n_prior_domains:
            raise ValueError(
                f"expected {self.n_prior_domains} prior-domain columns, got {accuracies.shape[1]}"
            )
        prior_means = np.zeros(self.n_prior_domains)
        prior_stds = np.zeros(self.n_prior_domains)
        for column in range(self.n_prior_domains):
            values = accuracies[:, column]
            values = values[~np.isnan(values)]
            if values.size == 0:
                prior_means[column] = 0.5
                prior_stds[column] = 0.2
            else:
                prior_means[column] = float(values.mean())
                prior_stds[column] = float(max(values.std(), 0.05))

        target_std = (
            self._config.initial_target_std
            if self._config.initial_target_std is not None
            else float(prior_stds.mean())
        )
        dimension = self.n_prior_domains + 1
        low, high = self._config.correlation_range
        rho = np.eye(dimension)
        upper = np.triu_indices(dimension, k=1)
        rho[upper] = self._rng.uniform(low, high, size=len(upper[0]))
        rho = rho + rho.T - np.eye(dimension)

        self._model = MultivariateNormalModel.from_moments(
            means=np.concatenate([prior_means, [self._config.initial_target_mean]]),
            stds=np.concatenate([prior_stds, [target_std]]),
            correlations=rho,
        )
        return self._model

    # ------------------------------------------------------------------ #
    # Likelihood (Eq. 5)
    # ------------------------------------------------------------------ #
    def _group_by_pattern(self, accuracies: np.ndarray) -> Dict[Tuple[int, ...], np.ndarray]:
        """Group worker rows by which prior domains they have history on."""
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for row_index in range(accuracies.shape[0]):
            observed = tuple(np.flatnonzero(~np.isnan(accuracies[row_index])).tolist())
            groups.setdefault(observed, []).append(row_index)
        return {pattern: np.asarray(rows, dtype=int) for pattern, rows in groups.items()}

    def _conditional_parameters(
        self,
        model: MultivariateNormalModel,
        accuracies: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-worker conditional mean and variance of the target accuracy."""
        n_workers = accuracies.shape[0]
        cond_means = np.zeros(n_workers)
        cond_vars = np.zeros(n_workers)
        for pattern, rows in self._group_by_pattern(accuracies).items():
            if pattern:
                means, variance = model.conditional_batch(
                    accuracies[np.ix_(rows, np.asarray(pattern))],
                    observed_indices=list(pattern),
                    target_index=self.target_index,
                )
            else:
                means = np.full(rows.size, model.mean[self.target_index])
                variance = float(model.covariance[self.target_index, self.target_index])
            cond_means[rows] = means
            cond_vars[rows] = variance
        cond_vars = np.maximum(cond_vars, self._config.min_conditional_std**2)
        return cond_means, cond_vars

    def prepare_round(
        self,
        historical_accuracies: np.ndarray,
        correct_counts: np.ndarray,
        wrong_counts: np.ndarray,
    ) -> RoundData:
        """Validate one round's data and precompute its likelihood invariants.

        The returned :class:`RoundData` makes every subsequent likelihood
        evaluation on this round's data a pure parameter computation: the
        worker grouping, the binomial log-table and the quadrature
        log-tables are never rebuilt.
        """
        accuracies = np.atleast_2d(np.asarray(historical_accuracies, dtype=float))
        correct = np.asarray(correct_counts, dtype=float)
        wrong = np.asarray(wrong_counts, dtype=float)
        if accuracies.shape[0] != correct.shape[0] or correct.shape != wrong.shape:
            raise ValueError("historical_accuracies, correct_counts and wrong_counts must align")
        if np.any(correct < 0) or np.any(wrong < 0):
            raise ValueError("counts must be non-negative")

        rule = self._rule
        binomial_term = (
            correct[:, None] * rule.log_nodes[None, :]
            + wrong[:, None] * rule.log_one_minus_nodes[None, :]
            + rule.log_weights[None, :]
        )
        patterns = tuple(
            (pattern, rows, accuracies[np.ix_(rows, np.asarray(pattern, dtype=int))])
            for pattern, rows in self._group_by_pattern(accuracies).items()
        )
        return RoundData(
            accuracies=accuracies,
            correct=correct,
            wrong=wrong,
            patterns=patterns,
            binomial_term=binomial_term,
            rule=rule,
        )

    def _stacked_conditional_parameters(
        self,
        means: np.ndarray,
        covariances: np.ndarray,
        data: RoundData,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-worker conditional moments under a stack of parameter settings.

        Returns ``(B, W)`` conditional means and variances for ``B`` models
        at once, using the pattern grouping cached in ``data``.
        """
        n_batch = means.shape[0]
        cond_means = np.zeros((n_batch, data.n_workers))
        cond_vars = np.zeros((n_batch, data.n_workers))
        for pattern, rows, observed in data.patterns:
            pattern_means, pattern_vars = MultivariateNormalModel.conditional_batch_stacked(
                means,
                covariances,
                observed,
                observed_indices=list(pattern),
                target_index=self.target_index,
            )
            cond_means[:, rows] = pattern_means
            cond_vars[:, rows] = pattern_vars[:, None]
        cond_vars = np.maximum(cond_vars, self._config.min_conditional_std**2)
        return cond_means, cond_vars

    def _stacked_log_likelihood(
        self,
        means: np.ndarray,
        covariances: np.ndarray,
        data: RoundData,
    ) -> np.ndarray:
        """Eq. (5) log-likelihood of ``data`` under ``B`` stacked models.

        This is the line-search objective of :meth:`update` (``B = 1``) and,
        in the finite-difference fallback, the whole ``B = 2P`` perturbation
        stack (canonicalised first), evaluated as a single
        ``(B x workers x nodes)`` log-space computation on top of the cached
        ``data.binomial_term``.  The
        log-sum-exp over the node axis is done in place on that one array,
        the dominant allocation, with no scratch copies of it.
        """
        cond_means, cond_vars = self._stacked_conditional_parameters(means, covariances, data)
        std = np.sqrt(cond_vars)  # (B, W)
        # log-integrand, built in place: -(h - mu)^2 / (2 s^2) - log s
        #                                - log(2 pi)/2 + binomial_term
        table = data.rule.nodes[None, None, :] - cond_means[..., None]
        table /= std[..., None]
        np.square(table, out=table)
        table *= -0.5
        table -= (np.log(std) + 0.5 * np.log(2.0 * np.pi))[..., None]
        table += data.binomial_term[None, :, :]
        # Streamlined logsumexp over the node axis (the integrand is finite:
        # interior Gauss--Legendre nodes and floored conditional variances).
        shift = np.max(table, axis=-1, keepdims=True)
        table -= shift
        np.exp(table, out=table)
        log_integrals = np.log(np.sum(table, axis=-1))
        log_integrals += shift[..., 0]
        return np.sum(log_integrals, axis=-1)

    def objective_stack(self, thetas: np.ndarray, data: RoundData) -> np.ndarray:
        """The update's objective at each row of a canonical ``(B, P)`` packed-parameter matrix.

        The objective is the negative Eq. (5) log-likelihood per worker.  The
        per-worker normalisation keeps the gradient scale comparable across
        pool sizes, so one learning-rate setting works for the 27-worker
        RW-1 and the 160-worker S-4 alike.  The rows must be canonical
        (:meth:`MultivariateNormalModel.canonicalise`); they are read
        without a check.
        """
        means, sigmas, rhos = MultivariateNormalModel.canonical_moments(thetas, self.target_index + 1)
        covariances = rhos * (sigmas[:, :, None] * sigmas[:, None, :])
        return -self._stacked_log_likelihood(means, covariances, data) / max(data.n_workers, 1)

    def objective_gradient(
        self,
        theta: np.ndarray,
        data: RoundData,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gradient of :meth:`objective_stack` at a canonical ``theta``, zero where ``mask`` is ``False``.

        The closed form (:meth:`_log_likelihood_gradient`) costs one
        ``(workers x nodes)`` table.  Where a conditioning system is
        singular it is undefined, and the gradient is central finite
        differences of :meth:`objective_stack` over the canonicalised
        perturbations instead.
        """
        theta = np.asarray(theta, dtype=float)
        gradient = self._log_likelihood_gradient(theta, data)
        if gradient is None:
            canonicalise = MultivariateNormalModel.canonicalise
            dimension = self.target_index + 1
            return finite_difference_gradient_batch(
                lambda thetas: self.objective_stack(canonicalise(thetas, dimension), data),
                theta,
                step=1e-5,
                mask=mask,
            )
        gradient *= -1.0 / max(data.n_workers, 1)
        if mask is not None:
            gradient[~np.asarray(mask, dtype=bool)] = 0.0
        return gradient

    def _log_likelihood_gradient(self, theta: np.ndarray, data: RoundData) -> Optional[np.ndarray]:
        """Closed-form gradient of Eq. (5) with respect to canonical packed parameters.

        Forward: each worker's conditional moments ``(m_i, v_i)`` and the
        softmax weights ``p_ij`` of the log-integrand over the quadrature
        nodes ``h_j``.  Then ``dL/dm_i = sum_j p_ij (h_j - m_i) / v_i`` and
        ``dL/dv_i = sum_j p_ij (h_j - m_i)^2 / (2 v_i^2) - 1 / (2 v_i)``,
        zero where the conditional-variance floor binds.  Backward: each
        pattern's conditioning pullback, then the ``(sigma, rho)``
        parameterisation.  Returns ``None`` where a conditioning system is
        singular (see :meth:`objective_gradient`).
        """
        dimension = self.target_index + 1
        arrays = MultivariateNormalModel.canonical_moments(theta[None, :], dimension)
        mean, sigma, rho = (array[0] for array in arrays)
        covariance = rho * np.outer(sigma, sigma)

        cond_means = np.empty(data.n_workers)
        cond_vars = np.empty(data.n_workers)
        pullbacks = []
        for pattern, rows, observed in data.patterns:
            conditional = MultivariateNormalModel.conditional_pullback(
                mean, covariance, observed, pattern, self.target_index
            )
            if conditional is None:
                return None
            pattern_means, pattern_var, pullback = conditional
            cond_means[rows] = pattern_means
            cond_vars[rows] = pattern_var
            pullbacks.append((rows, pullback))
        floor = self._config.min_conditional_std**2
        free = cond_vars > floor
        cond_vars = np.maximum(cond_vars, floor)

        # Softmax over the nodes of the log-integrand; its node-independent
        # terms (-log v_i / 2 - log(2 pi) / 2) cancel.
        diff = data.rule.nodes[None, :] - cond_means[:, None]
        squared = diff * diff
        weights = data.binomial_term - squared * (0.5 / cond_vars)[:, None]
        weights -= np.max(weights, axis=1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= np.sum(weights, axis=1, keepdims=True)
        grad_means = np.sum(weights * diff, axis=1) / cond_vars
        grad_vars = (np.sum(weights * squared, axis=1) / cond_vars - 1.0) / (2.0 * cond_vars)
        grad_vars[~free] = 0.0

        grad_mean = np.zeros(dimension)
        grad_cov = np.zeros((dimension, dimension))
        for rows, pullback in pullbacks:
            pattern_mean, pattern_cov = pullback(grad_means[rows], float(np.sum(grad_vars[rows])))
            grad_mean += pattern_mean
            grad_cov += pattern_cov
        return MultivariateNormalModel.parameter_gradient(sigma, rho, grad_mean, grad_cov)

    def _objective_and_gradient(
        self,
        historical_accuracies: np.ndarray,
        correct_counts: np.ndarray,
        wrong_counts: np.ndarray,
        mask: np.ndarray,
    ) -> Tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
        """The objective :meth:`update` descends and its gradient, over packed parameters.

        Both read one :class:`RoundData` built here: the objective is
        :meth:`objective_stack` at one canonical row, the gradient
        :meth:`objective_gradient`, zero where ``mask`` is ``False``.
        """
        data = self.prepare_round(historical_accuracies, correct_counts, wrong_counts)

        def objective(theta: np.ndarray) -> float:
            return float(self.objective_stack(theta[None, :], data)[0])

        def gradient(theta: np.ndarray) -> np.ndarray:
            return self.objective_gradient(theta, data, mask)

        return objective, gradient

    # ------------------------------------------------------------------ #
    # Update (Algorithm 1, step 4 / Eq. 6-7)
    # ------------------------------------------------------------------ #
    def update(
        self,
        historical_accuracies: np.ndarray,
        correct_counts: np.ndarray,
        wrong_counts: np.ndarray,
    ) -> MultivariateNormalModel:
        """One round of gradient-based maximum-likelihood updating."""
        if self._model is None:
            self.initialize(historical_accuracies)
        model = self.model
        dimension = model.dimension
        mean_slice, sigma_slice, rho_slice = MultivariateNormalModel.parameter_slices(dimension)

        initial = model.pack_parameters()
        rates = np.zeros_like(initial)
        rates[mean_slice] = self._config.learning_rate_mean
        rates[sigma_slice] = self._config.learning_rate_cov
        rates[rho_slice] = self._config.learning_rate_cov

        mask = np.ones(initial.shape[0], dtype=bool)
        if not self._config.update_prior_moments:
            mask[mean_slice] = False
            mask[sigma_slice] = False
            # The target-domain mean/std (last entry of each block) stays trainable.
            mask[mean_slice.stop - 1] = True
            mask[sigma_slice.stop - 1] = True

        objective, raw_gradient = self._objective_and_gradient(
            historical_accuracies, correct_counts, wrong_counts, mask
        )

        def project(theta: np.ndarray) -> np.ndarray:
            # Accuracy means live in [0, 1] and accuracy standard deviations
            # cannot exceed 0.5; clamping here keeps every gradient step
            # inside the region where the model is meaningful.  The only
            # correlation check of a candidate happens here: the objective
            # and the gradient read the canonical result unchecked.
            clipped = np.asarray(theta, dtype=float).copy()
            clipped[mean_slice] = np.clip(clipped[mean_slice], 0.01, 0.99)
            clipped[sigma_slice] = np.clip(clipped[sigma_slice], 0.02, 0.6)
            return MultivariateNormalModel.canonicalise(clipped, dimension)[0]

        def normalised_gradient(theta: np.ndarray) -> np.ndarray:
            # The likelihood surface is steep along the correlation axes when
            # the conditional prior is tight; normalising the gradient turns
            # the learning rates into parameter-scale step sizes and lets the
            # backtracking line search keep every update monotone.
            raw = raw_gradient(theta)
            norm = float(np.linalg.norm(raw))
            return raw / norm if norm > 1.0 else raw

        result = gradient_descent(
            objective=objective,
            initial=initial,
            learning_rates=rates,
            n_epochs=self._config.n_epochs,
            gradient=normalised_gradient,
            project=project,
            mask=mask,
            max_backtracks=12,
        )
        self._model = MultivariateNormalModel.unpack_parameters(result.parameters, dimension)
        return self._model

    # ------------------------------------------------------------------ #
    # Prediction (Eq. 8)
    # ------------------------------------------------------------------ #
    def predict(
        self,
        historical_accuracies: np.ndarray,
        correct_counts: Optional[np.ndarray] = None,
        wrong_counts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Predicted target-domain accuracy ``p_{c,i}`` per worker.

        With ``posterior="prior"`` (the paper's Eq. 8) only the historical
        profile is used; with ``posterior="counts"`` the supplied counts
        additionally reweight the conditional density.
        """
        accuracies = np.atleast_2d(np.asarray(historical_accuracies, dtype=float))
        model = self.model
        cond_means, cond_vars = self._conditional_parameters(model, accuracies)

        if self._config.posterior == "prior" or correct_counts is None or wrong_counts is None:
            return np.array(
                [
                    truncated_normal_mean(float(mu), float(np.sqrt(var)), 0.0, 1.0)
                    for mu, var in zip(cond_means, cond_vars)
                ]
            )

        correct = np.asarray(correct_counts, dtype=float)
        wrong = np.asarray(wrong_counts, dtype=float)
        nodes = self._rule.nodes
        log_weights = self._rule.log_weights
        log_h = self._rule.log_nodes
        log_1mh = self._rule.log_one_minus_nodes
        std = np.sqrt(cond_vars)[:, None]
        log_density = (
            correct[:, None] * log_h[None, :]
            + wrong[:, None] * log_1mh[None, :]
            - 0.5 * ((nodes[None, :] - cond_means[:, None]) / std) ** 2
            - np.log(std)
        )
        log_numerator = logsumexp(log_density + log_weights[None, :] + log_h[None, :], axis=1)
        log_denominator = logsumexp(log_density + log_weights[None, :], axis=1)
        return np.exp(log_numerator - log_denominator)


__all__ = ["CPEConfig", "CrossDomainPerformanceEstimator", "RoundData"]
