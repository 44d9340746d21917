"""Equivalence of the vectorized CPE likelihood engine and the scalar oracle.

The vectorized engine (RoundData precomputation, stacked batch evaluation,
closed-form gradient) must compute the same Eq. (5) log-likelihood as the
scalar oracle in ``tests/oracles/cpe.py`` to ~1e-10, its batched finite
differences must match the scalar ones, and — the end-to-end claim — full
campaigns on the S-1, RW-1, S-3 and S-4:mixed20 seeds must select the same
workers when every update descends the oracle's finite-difference
gradient instead.  The closed-form gradient itself is held to central
differences in ``test_cpe_gradient.py``.  The oracle's docstring records
why these tolerances hold only on seeds clear of the variance floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.cpe import log_likelihood, use_scalar_likelihood
from repro.campaign import Campaign
from repro.core.cpe import CPEConfig, CrossDomainPerformanceEstimator
from repro.stats.mvn import MultivariateNormalModel
from repro.stats.optimize import (
    finite_difference_gradient,
    finite_difference_gradient_batch,
)

N_DOMAINS = 3
DIMENSION = N_DOMAINS + 1


def make_estimator(seed=0, **overrides) -> CrossDomainPerformanceEstimator:
    config = CPEConfig(**overrides)
    return CrossDomainPerformanceEstimator([f"d{i}" for i in range(N_DOMAINS)], config, rng=seed)


def random_workload(rng: np.random.Generator, n_workers: int, with_missing: bool = True):
    """Random profiles (optionally with missing-domain patterns) and counts."""
    profiles = np.clip(rng.normal(0.65, 0.15, size=(n_workers, N_DOMAINS)), 0.05, 0.95)
    if with_missing and n_workers >= 4:
        profiles[0, rng.integers(N_DOMAINS)] = np.nan  # one missing domain
        profiles[1, :] = np.nan  # no history at all
        profiles[2, : N_DOMAINS - 1] = np.nan  # single observed domain
    tasks = int(rng.integers(5, 40))
    latent = np.clip(rng.normal(0.65, 0.15, size=n_workers), 0.05, 0.95)
    correct = rng.binomial(tasks, latent).astype(float)
    wrong = tasks - correct
    return profiles, correct, wrong


def random_models(rng: np.random.Generator, base: MultivariateNormalModel, n_models: int):
    """Models at randomly perturbed packed-parameter vectors around ``base``."""
    theta = base.pack_parameters()
    thetas = theta[None, :] + rng.normal(0.0, 0.05, size=(n_models, theta.size))
    return [MultivariateNormalModel.unpack_parameters(row, base.dimension) for row in thetas], thetas


def stacked_log_likelihood(estimator, thetas, data) -> np.ndarray:
    """The vectorized engine's Eq. (5) log-likelihood at each (canonicalised) row."""
    canonical = MultivariateNormalModel.canonicalise(thetas, DIMENSION)
    return -estimator.objective_stack(canonical, data) * data.n_workers


class TestLikelihoodEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_models_and_patterns(self, seed):
        rng = np.random.default_rng(seed)
        estimator = make_estimator(seed=seed)
        profiles, correct, wrong = random_workload(rng, n_workers=int(rng.integers(4, 40)))
        base = estimator.initialize(profiles)
        data = estimator.prepare_round(profiles, correct, wrong)
        models, thetas = random_models(rng, base, n_models=6)
        for model, theta in zip(models, thetas):
            reference = log_likelihood(estimator, model, profiles, correct, wrong)
            fast = float(stacked_log_likelihood(estimator, theta[None, :], data)[0])
            assert fast == pytest.approx(reference, abs=1e-10, rel=1e-12)

    def test_batch_matches_sequential_evaluation(self):
        rng = np.random.default_rng(42)
        estimator = make_estimator(seed=7)
        profiles, correct, wrong = random_workload(rng, n_workers=25)
        base = estimator.initialize(profiles)
        data = estimator.prepare_round(profiles, correct, wrong)
        models, thetas = random_models(rng, base, n_models=12)
        batch = stacked_log_likelihood(estimator, thetas, data)
        sequential = [log_likelihood(estimator, m, profiles, correct, wrong) for m in models]
        np.testing.assert_allclose(batch, sequential, atol=1e-10, rtol=1e-12)

    def test_canonical_moments_match_scalar_unpack(self):
        rng = np.random.default_rng(3)
        estimator = make_estimator(seed=3)
        profiles, _, _ = random_workload(rng, n_workers=10)
        base = estimator.initialize(profiles)
        # Include rows that violate positive definiteness so the projection
        # is exercised too.
        _, thetas = random_models(rng, base, n_models=8)
        _, _, rho_slice = MultivariateNormalModel.parameter_slices(DIMENSION)
        thetas[-1, rho_slice] = -0.999  # all -0.999 is no correlation matrix: projected
        canonical = MultivariateNormalModel.canonicalise(thetas, DIMENSION)
        means, sigmas, rhos = MultivariateNormalModel.canonical_moments(canonical, DIMENSION)
        covariances = rhos * (sigmas[:, :, None] * sigmas[:, None, :])
        for index, row in enumerate(thetas):
            scalar = MultivariateNormalModel.unpack_parameters(row, DIMENSION)
            np.testing.assert_array_equal(means[index], scalar.mean)
            np.testing.assert_allclose(covariances[index], scalar.covariance, atol=1e-12)

    def test_validation_matches_reference(self):
        estimator = make_estimator()
        profiles = np.full((3, N_DOMAINS), 0.6)
        estimator.initialize(profiles)
        with pytest.raises(ValueError):
            estimator.prepare_round(profiles, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            estimator.prepare_round(profiles, np.array([-1.0, 0.0, 0.0]), np.zeros(3))


class TestGradientEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_gradient_matches_sequential(self, seed):
        rng = np.random.default_rng(100 + seed)
        estimator = make_estimator(seed=seed)
        profiles, correct, wrong = random_workload(rng, n_workers=15)
        base = estimator.initialize(profiles)
        data = estimator.prepare_round(profiles, correct, wrong)
        theta = base.pack_parameters()
        mask = np.ones(theta.size, dtype=bool)
        mask[1] = False  # exercise frozen coordinates as well

        def objective(vector):
            model = MultivariateNormalModel.unpack_parameters(vector, DIMENSION)
            return -log_likelihood(estimator, model, profiles, correct, wrong)

        def objective_batch(matrix):
            return -stacked_log_likelihood(estimator, matrix, data)

        sequential = finite_difference_gradient(objective, theta, step=1e-5, mask=mask)
        batched = finite_difference_gradient_batch(objective_batch, theta, step=1e-5, mask=mask)
        np.testing.assert_allclose(batched, sequential, atol=1e-6)
        assert batched[1] == 0.0


def fit_both_ways(monkeypatch, seed, n_epochs, profiles, correct, wrong):
    """One update on the vectorized engine and one on the scalar oracle, from the same start."""
    fitted = []
    for oracle in (False, True):
        with monkeypatch.context() as patched:
            if oracle:
                use_scalar_likelihood(patched)
            estimator = make_estimator(seed=seed, n_epochs=n_epochs)
            estimator.initialize(profiles)
            estimator.update(profiles, correct, wrong)
        fitted.append(estimator)
    return fitted


class TestUpdateEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_update_produces_same_model(self, seed, monkeypatch):
        rng = np.random.default_rng(200 + seed)
        profiles, correct, wrong = random_workload(rng, n_workers=20)
        vectorized, oracle = fit_both_ways(monkeypatch, seed, 10, profiles, correct, wrong)
        np.testing.assert_allclose(
            vectorized.model.pack_parameters(), oracle.model.pack_parameters(), atol=1e-8
        )

    def test_predictions_identical_across_engines(self, monkeypatch):
        rng = np.random.default_rng(321)
        profiles, correct, wrong = random_workload(rng, n_workers=20)
        vectorized, oracle = fit_both_ways(monkeypatch, 5, 8, profiles, correct, wrong)
        np.testing.assert_allclose(
            vectorized.predict(profiles, correct, wrong), oracle.predict(profiles, correct, wrong), atol=1e-8
        )


def _assert_reports_equivalent(fast_report, reference_report):
    """Identical selections and (float-tolerant) identical report payloads."""
    fast, reference = fast_report.to_dict(), reference_report.to_dict()
    assert fast["selected_worker_ids"] == reference["selected_worker_ids"]
    assert fast["spent_budget"] == reference["spent_budget"]
    assert fast["n_rounds"] == reference["n_rounds"]
    fast_events, reference_events = fast.pop("events"), reference.pop("events")
    assert len(fast_events) == len(reference_events)
    for fast_event, reference_event in zip(fast_events, reference_events):
        assert fast_event["worker_ids"] == reference_event["worker_ids"]
        assert fast_event["survivors"] == reference_event["survivors"]
        for key in ("observed_accuracies", "cpe_estimates", "lge_estimates"):
            assert set(fast_event[key]) == set(reference_event[key])
            for worker_id, value in fast_event[key].items():
                assert value == pytest.approx(reference_event[key][worker_id], abs=1e-6)
    for key, value in fast.items():
        if isinstance(value, float):
            assert value == pytest.approx(reference[key], abs=1e-6), key
        elif isinstance(value, dict):
            for inner_key, inner_value in value.items():
                assert inner_value == pytest.approx(reference[key][inner_key], abs=1e-6)
        else:
            assert value == reference[key], key


@pytest.mark.parametrize("dataset", ["S-1", "RW-1", "S-3", "S-4:mixed20"])
def test_campaign_selections_identical_across_engines(dataset, monkeypatch):
    """Full Campaign.run() on the paper seeds: the refactor changes nothing.

    No setting selects the oracle, so the second run patches it in where
    the update builds its ``(objective, gradient)`` pair.
    """
    vectorized = Campaign(dataset=dataset, selector="ours", seed=11, cpe_epochs=12).run()
    use_scalar_likelihood(monkeypatch)
    reference = Campaign(dataset=dataset, selector="ours", seed=11, cpe_config=CPEConfig(n_epochs=12)).run()
    _assert_reports_equivalent(vectorized, reference)
