"""The closed-form Eq. (5) gradient of the CPE update against central differences.

``CrossDomainPerformanceEstimator.objective_gradient`` differentiates the
update's objective (the negative Eq. (5) log-likelihood per worker) in one
forward and one backward pass.  These tests hold it to central finite
differences of ``objective_stack`` over canonicalised perturbations, the
same objective the line search uses, over random pools: 1-4 prior domains,
workers with missing domains or no history at all, 3-100 workers, and the
frozen-prior-moments mask.  Where a conditioning solve is singular, the
gradient must be exactly the finite-difference one.  The update checks a
candidate's correlations once, where it projects the candidate; the
gradient and the line search read the canonical candidate unchecked.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.cpe as cpe_module
import repro.stats.mvn as mvn_module
from oracles.cpe import use_scalar_likelihood
from repro.campaign import Campaign
from repro.core.cpe import CPEConfig, CrossDomainPerformanceEstimator
from repro.stats.mvn import MultivariateNormalModel
from repro.stats.optimize import finite_difference_gradient_batch

#: Central-difference steps, coarse to fine (each 10x smaller).
STEPS = (1e-4, 1e-5, 1e-6, 1e-7)
#: Relative error allowed at the best of ``STEPS``.
RELATIVE_TOLERANCE = 1e-6


def random_round(seed: int, n_domains: int, n_workers: int, missing_rate: float):
    rng = np.random.default_rng(seed)
    profiles = np.clip(rng.normal(0.65, 0.15, size=(n_workers, n_domains)), 0.05, 0.95)
    profiles[rng.random((n_workers, n_domains)) < missing_rate] = np.nan
    profiles[0, :] = np.nan  # one worker with no history at all
    tasks = int(rng.integers(3, 60))
    latent = np.clip(rng.normal(0.65, 0.15, size=n_workers), 0.05, 0.95)
    correct = rng.binomial(tasks, latent).astype(float)
    return profiles, correct, tasks - correct


def update_mask(estimator: CrossDomainPerformanceEstimator) -> np.ndarray:
    """The trainable coordinates ``update`` uses (frozen prior moments when configured)."""
    dimension = estimator.target_index + 1
    mean_slice, sigma_slice, rho_slice = MultivariateNormalModel.parameter_slices(dimension)
    mask = np.ones(rho_slice.stop, dtype=bool)
    if not estimator.config.update_prior_moments:
        mask[mean_slice.start : mean_slice.stop - 1] = False
        mask[sigma_slice.start : sigma_slice.stop - 1] = False
    return mask


def raw_conditional_variances(estimator, theta, data) -> np.ndarray:
    """Each pattern's conditional variance before the ``min_conditional_std`` floor."""
    dimension = estimator.target_index + 1
    model = MultivariateNormalModel.unpack_parameters(theta, dimension)
    variances = []
    for pattern, _, observed in data.patterns:
        _, variance = model.conditional_batch(observed, list(pattern), estimator.target_index)
        variances.append(variance)
    return np.asarray(variances)


def canonical(estimator, theta) -> np.ndarray:
    return MultivariateNormalModel.canonicalise(theta, estimator.target_index + 1)[0]


def fd_gradient(estimator, theta, data, step, mask=None) -> np.ndarray:
    dimension = estimator.target_index + 1
    return finite_difference_gradient_batch(
        lambda thetas: estimator.objective_stack(MultivariateNormalModel.canonicalise(thetas, dimension), data),
        theta,
        step=step,
        mask=mask,
    )


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_domains=st.integers(1, 4),
    n_workers=st.integers(3, 100),
    missing_rate=st.sampled_from([0.0, 0.2, 0.5]),
    update_prior_moments=st.booleans(),
    min_conditional_std=st.sampled_from([0.0, 0.08]),
)
def test_analytic_gradient_matches_central_differences(
    seed, n_domains, n_workers, missing_rate, update_prior_moments, min_conditional_std
):
    config = CPEConfig(
        update_prior_moments=update_prior_moments, min_conditional_std=min_conditional_std
    )
    estimator = CrossDomainPerformanceEstimator(
        [f"d{index}" for index in range(n_domains)], config, rng=seed
    )
    profiles, correct, wrong = random_round(seed, n_domains, n_workers, missing_rate)
    model = estimator.initialize(profiles)
    data = estimator.prepare_round(profiles, correct, wrong)
    raw = model.pack_parameters()
    raw = raw + np.random.default_rng(seed).normal(0.0, 0.02, size=raw.size)
    theta = canonical(estimator, raw)
    mask = update_mask(estimator)

    # The clip bounds and the variance floor are kinks; central differences
    # straddling one average two one-sided slopes, so keep clear of them.
    _, sigma_slice, rho_slice = MultivariateNormalModel.parameter_slices(estimator.target_index + 1)
    assume(np.all(theta[sigma_slice] > 1e-4) and np.all(np.abs(theta[rho_slice]) < 0.999))
    # A projected centre lies ~1e-4 from the positive-definite boundary,
    # too steep for central differences; TestFallback covers one exactly.
    assume(np.array_equal(theta[rho_slice], raw[rho_slice]))
    floor = max(min_conditional_std**2, 1e-8)
    variances = raw_conditional_variances(estimator, theta, data)
    assume(np.all(np.abs(variances - floor) > 1e-3 * floor))

    gradient = estimator.objective_gradient(theta, data, mask)
    assert np.all(gradient[~mask] == 0.0)
    scale = max(float(np.linalg.norm(gradient)), 1e-8)
    errors = [
        float(np.linalg.norm(gradient - fd_gradient(estimator, theta, data, step, mask))) / scale
        for step in STEPS
    ]
    # On steep surfaces (conditional variances near 1e-7, |gradient| ~ 1e6)
    # even the finest step is truncation-limited; then the error must fall
    # as O(h^2) over the last two refinements.
    converging = all(coarse >= 50.0 * fine for coarse, fine in zip(errors[-3:], errors[-2:]))
    assert min(errors) <= RELATIVE_TOLERANCE or converging, errors


def test_gradient_error_shrinks_quadratically_with_the_step():
    """Central differences converge on the closed form at O(h^2)."""
    estimator = CrossDomainPerformanceEstimator(["a", "b", "c"], CPEConfig(), rng=4)
    profiles, correct, wrong = random_round(4, 3, 60, 0.2)
    model = estimator.initialize(profiles)
    data = estimator.prepare_round(profiles, correct, wrong)
    theta = model.pack_parameters()
    gradient = estimator.objective_gradient(theta, data)
    errors = [
        float(np.linalg.norm(gradient - fd_gradient(estimator, theta, data, step)))
        for step in (1e-4, 1e-5)
    ]
    # A 10x smaller step cuts the truncation error ~100x.
    assert errors[1] < errors[0] / 50.0, errors


def test_floored_variance_contributes_no_variance_gradient():
    """With every conditional variance under the floor, only the means move the objective."""
    config = CPEConfig(min_conditional_std=0.6)
    estimator = CrossDomainPerformanceEstimator(["a", "b"], config, rng=1)
    profiles, correct, wrong = random_round(1, 2, 30, 0.2)
    model = estimator.initialize(profiles)
    data = estimator.prepare_round(profiles, correct, wrong)
    theta = model.pack_parameters()
    gradient = estimator.objective_gradient(theta, data)
    np.testing.assert_allclose(gradient, fd_gradient(estimator, theta, data, 1e-5), atol=1e-7)


class TestFallback:
    @staticmethod
    def prepared():
        estimator = CrossDomainPerformanceEstimator(["a", "b", "c"], CPEConfig(), rng=0)
        profiles, correct, wrong = random_round(0, 3, 25, 0.2)
        model = estimator.initialize(profiles)
        return estimator, estimator.prepare_round(profiles, correct, wrong), model.pack_parameters()

    def test_centre_failing_the_cholesky_check_is_projected_first(self, monkeypatch):
        estimator, data, theta = self.prepared()
        _, _, rho_slice = MultivariateNormalModel.parameter_slices(4)
        # rho_ab = rho_ac = 0.99 with rho_bc = -0.99 is not a correlation matrix.
        theta[rho_slice] = [0.99, 0.99, 0.2, -0.99, 0.2, 0.2]
        centre = canonical(estimator, theta)
        assert not np.array_equal(centre[rho_slice], theta[rho_slice])  # projected
        mask = np.ones(theta.size, dtype=bool)
        mask[0] = False

        def forbidden(*args, **kwargs):
            raise AssertionError("the finite-difference fallback ran")

        with monkeypatch.context() as patched:
            patched.setattr(cpe_module, "finite_difference_gradient_batch", forbidden)
            gradient = estimator.objective_gradient(centre, data, mask)
        expected = fd_gradient(estimator, centre, data, 1e-6, mask)
        np.testing.assert_allclose(gradient, expected, rtol=1e-6, atol=1e-8)

    def test_singular_conditioning_uses_finite_differences(self, monkeypatch):
        estimator, data, theta = self.prepared()

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        # Every solve fails: the closed form gives up, while the stacked
        # likelihood falls back to its pseudo-inverse path.
        monkeypatch.setattr(np.linalg, "solve", singular)
        expected = fd_gradient(estimator, theta, data, 1e-5)
        np.testing.assert_array_equal(estimator.objective_gradient(theta, data), expected)


def test_update_checks_each_candidate_once(monkeypatch):
    """One ``update`` makes one Cholesky check per projected candidate, plus one per model built.

    The line search and the gradient read the canonical candidates
    unchecked.  Near-collinear initial correlations make some candidates
    need projecting, so the count holds on that branch too.
    """
    counts = Counter()

    def counting(name, function):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        mvn_module, "_passes_cholesky_check", counting("checks", mvn_module._passes_cholesky_check)
    )
    monkeypatch.setattr(
        mvn_module, "_projected_correlation", counting("projections", mvn_module._projected_correlation)
    )
    monkeypatch.setattr(
        MultivariateNormalModel, "__post_init__", counting("models", MultivariateNormalModel.__post_init__)
    )
    descent = cpe_module.gradient_descent

    def counting_descent(**kwargs):
        kwargs["objective"] = counting("objectives", kwargs["objective"])
        kwargs["gradient"] = counting("gradients", kwargs["gradient"])
        kwargs["project"] = counting("projects", kwargs["project"])
        return descent(**kwargs)

    monkeypatch.setattr(cpe_module, "gradient_descent", counting_descent)
    config = CPEConfig(correlation_range=(0.9, 1.0), n_epochs=30)
    estimator = CrossDomainPerformanceEstimator(["a", "b", "c"], config, rng=2)
    profiles, correct, wrong = random_round(2, 3, 40, 0.2)
    estimator.update(profiles, correct, wrong)

    assert counts["checks"] == counts["projects"] + counts["models"], counts
    assert counts["models"] == 2  # the initial model and the fitted one
    assert counts["projections"] > 0
    assert counts["objectives"] > counts["projects"] > 0
    assert counts["gradients"] > 0


def test_campaign_updates_take_the_analytic_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the finite-difference fallback ran")

    monkeypatch.setattr(cpe_module, "finite_difference_gradient_batch", forbidden)
    report = Campaign(dataset="S-1", selector="ours", seed=3, cpe_epochs=12).run()
    assert len(report.selected_worker_ids) == report.k


@pytest.mark.parametrize("dataset", ["RW-1", "S-1"])
def test_reference_engine_keeps_finite_differences(dataset, monkeypatch):
    """The scalar oracle (``tests/oracles/cpe.py``) never calls the closed form."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form gradient ran")

    monkeypatch.setattr(CrossDomainPerformanceEstimator, "_log_likelihood_gradient", forbidden)
    use_scalar_likelihood(monkeypatch)
    report = Campaign(dataset=dataset, selector="ours", seed=3, cpe_config=CPEConfig(n_epochs=3)).run()
    assert len(report.selected_worker_ids) == report.k
