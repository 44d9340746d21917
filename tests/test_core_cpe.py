"""Tests for the Cross-domain-aware Performance Estimator (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.cpe import log_likelihood, use_scalar_likelihood
from repro.core.cpe import CPEConfig, CrossDomainPerformanceEstimator
from repro.stats.mvn import MultivariateNormalModel


def make_estimator(posterior="counts", n_epochs=3, rng=0, **kwargs) -> CrossDomainPerformanceEstimator:
    config = CPEConfig(n_epochs=n_epochs, n_quadrature_nodes=24, posterior=posterior, **kwargs)
    return CrossDomainPerformanceEstimator(["d1", "d2", "d3"], config, rng=rng)


def example_profiles() -> np.ndarray:
    return np.array(
        [
            [0.9, 0.85, 0.8],
            [0.7, 0.65, 0.6],
            [0.5, 0.45, 0.55],
            [0.3, 0.35, 0.4],
        ]
    )


class TestConfigValidation:
    def test_invalid_target_mean(self):
        with pytest.raises(ValueError):
            CPEConfig(initial_target_mean=0.0)

    def test_invalid_posterior(self):
        with pytest.raises(ValueError):
            CPEConfig(posterior="bogus")

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            CPEConfig(n_epochs=-1)

    def test_invalid_quadrature(self):
        with pytest.raises(ValueError):
            CPEConfig(n_quadrature_nodes=1)

    def test_invalid_likelihood_engine(self):
        # The engine switch is gone: the scalar likelihood is a test oracle.
        with pytest.raises(TypeError):
            CPEConfig(likelihood_engine="reference")


class TestInitialisation:
    def test_requires_initialisation_before_use(self):
        estimator = make_estimator()
        with pytest.raises(RuntimeError):
            _ = estimator.model

    def test_prior_moments_from_data(self):
        estimator = make_estimator()
        model = estimator.initialize(example_profiles())
        np.testing.assert_allclose(model.mean[:3], example_profiles().mean(axis=0), atol=1e-9)
        assert model.mean[3] == pytest.approx(0.5)

    def test_target_std_defaults_to_mean_prior_std(self):
        estimator = make_estimator()
        model = estimator.initialize(example_profiles())
        assert model.sigma[3] == pytest.approx(model.sigma[:3].mean(), rel=1e-6)

    def test_explicit_target_std(self):
        estimator = make_estimator(initial_target_std=0.3)
        model = estimator.initialize(example_profiles())
        assert model.sigma[3] == pytest.approx(0.3)

    def test_correlations_within_range(self):
        estimator = make_estimator(correlation_range=(0.2, 0.4))
        model = estimator.initialize(example_profiles())
        upper = model.rho[np.triu_indices(4, k=1)]
        assert np.all(upper >= 0.1) and np.all(upper <= 0.5)  # projection may move them slightly

    def test_wrong_column_count_rejected(self):
        estimator = make_estimator()
        with pytest.raises(ValueError):
            estimator.initialize(np.ones((3, 2)) * 0.5)

    def test_all_nan_column_gets_defaults(self):
        profiles = example_profiles()
        profiles[:, 1] = np.nan
        model = make_estimator().initialize(profiles)
        assert model.mean[1] == pytest.approx(0.5)


class TestLikelihood:
    def test_likelihood_is_finite(self):
        estimator = make_estimator()
        estimator.initialize(example_profiles())
        value = log_likelihood(
            estimator, estimator.model, example_profiles(), np.array([8, 6, 5, 2]), np.array([2, 4, 5, 8])
        )
        assert np.isfinite(value)

    def test_likelihood_prefers_consistent_counts(self):
        # A model whose conditional means match the observed accuracies should
        # score higher than one that contradicts them.  Positive cross-domain
        # correlations make the expected ordering unambiguous.
        estimator = make_estimator(rng=1, correlation_range=(0.5, 0.8))
        estimator.initialize(example_profiles())
        model = estimator.model
        correct = np.array([18, 13, 10, 6])
        wrong = np.array([2, 7, 10, 14])
        consistent = log_likelihood(estimator, model, example_profiles(), correct, wrong)
        inconsistent = log_likelihood(estimator, model, example_profiles(), wrong, correct)
        assert consistent > inconsistent

    def test_misaligned_inputs_rejected(self):
        estimator = make_estimator()
        estimator.initialize(example_profiles())
        with pytest.raises(ValueError):
            log_likelihood(estimator, estimator.model, example_profiles(), np.array([1, 2]), np.array([1, 2]))

    def test_negative_counts_rejected(self):
        estimator = make_estimator()
        estimator.initialize(example_profiles())
        with pytest.raises(ValueError):
            log_likelihood(estimator, estimator.model, example_profiles(), np.array([-1, 0, 0, 0]), np.zeros(4))

    def test_large_counts_do_not_underflow(self):
        estimator = make_estimator()
        estimator.initialize(example_profiles())
        correct, wrong = np.array([300, 200, 150, 100]), np.array([20, 120, 170, 220])
        assert np.isfinite(log_likelihood(estimator, estimator.model, example_profiles(), correct, wrong))
        # The library's own likelihood, which the update descends, too.
        data = estimator.prepare_round(example_profiles(), correct, wrong)
        theta = MultivariateNormalModel.canonicalise(estimator.model.pack_parameters()[None, :], 4)
        assert np.isfinite(estimator.objective_stack(theta, data)[0])


class TestUpdate:
    def test_update_does_not_decrease_likelihood(self):
        estimator = make_estimator(n_epochs=10, rng=2)
        profiles = example_profiles()
        correct = np.array([17, 12, 9, 5])
        wrong = np.array([3, 8, 11, 15])
        estimator.initialize(profiles)
        before = log_likelihood(estimator, estimator.model, profiles, correct, wrong)
        estimator.update(profiles, correct, wrong)
        after = log_likelihood(estimator, estimator.model, profiles, correct, wrong)
        assert after >= before - 1e-6

    def test_update_initialises_lazily(self):
        estimator = make_estimator()
        estimator.update(example_profiles(), np.array([5, 5, 5, 5]), np.array([5, 5, 5, 5]))
        assert estimator.is_initialized

    def test_parameters_stay_in_valid_region(self):
        estimator = make_estimator(n_epochs=15, rng=3)
        profiles = example_profiles()
        estimator.initialize(profiles)
        estimator.update(profiles, np.array([20, 15, 10, 0]), np.array([0, 5, 10, 20]))
        model = estimator.model
        assert np.all(model.mean >= 0.0) and np.all(model.mean <= 1.0)
        assert np.all(model.sigma > 0.0) and np.all(model.sigma <= 0.61)
        assert np.all(np.abs(model.rho) <= 1.0)

    def test_frozen_prior_moments(self):
        estimator = make_estimator(update_prior_moments=False, n_epochs=8, rng=4)
        profiles = example_profiles()
        initial = estimator.initialize(profiles)
        prior_means_before = initial.mean[:3].copy()
        estimator.update(profiles, np.array([15, 10, 8, 4]), np.array([5, 10, 12, 16]))
        np.testing.assert_allclose(estimator.model.mean[:3], prior_means_before)


class TestPredict:
    def test_counts_posterior_tracks_observations(self):
        estimator = make_estimator()
        profiles = example_profiles()
        estimator.initialize(profiles)
        correct = np.array([19, 12, 10, 2])
        wrong = np.array([1, 8, 10, 18])
        predictions = estimator.predict(profiles, correct, wrong)
        assert predictions[0] > predictions[3]
        assert np.all((predictions >= 0.0) & (predictions <= 1.0))

    def test_prior_posterior_ignores_counts(self):
        estimator = make_estimator(posterior="prior")
        profiles = example_profiles()
        estimator.initialize(profiles)
        with_counts = estimator.predict(profiles, np.array([19, 1, 1, 1]), np.array([1, 19, 19, 19]))
        without_counts = estimator.predict(profiles)
        np.testing.assert_allclose(with_counts, without_counts)

    def test_prior_posterior_monotone_in_profile(self):
        estimator = make_estimator(posterior="prior", rng=5, correlation_range=(0.5, 0.8))
        profiles = example_profiles()
        estimator.initialize(profiles)
        predictions = estimator.predict(profiles)
        assert predictions[0] > predictions[3]

    def test_counts_move_prediction_towards_observation(self):
        estimator = make_estimator(min_conditional_std=0.15)
        profiles = example_profiles()
        estimator.initialize(profiles)
        baseline = estimator.predict(profiles)
        strong_evidence = estimator.predict(profiles, np.array([40, 40, 40, 40]), np.array([0, 0, 0, 0]))
        assert np.all(strong_evidence >= baseline - 1e-9)

    def test_missing_domain_handled(self):
        estimator = make_estimator()
        profiles = example_profiles()
        profiles[2, :] = np.nan  # worker with no history at all
        profiles[1, 0] = np.nan  # worker missing one domain
        estimator.initialize(profiles)
        predictions = estimator.predict(profiles, np.array([10, 10, 10, 10]), np.array([2, 2, 2, 2]))
        assert np.all(np.isfinite(predictions))

    def test_estimated_correlations_keys(self):
        estimator = make_estimator()
        estimator.initialize(example_profiles())
        correlations = estimator.estimated_correlations()
        assert set(correlations) == {"d1", "d2", "d3"}
        assert all(-1.0 <= value <= 1.0 for value in correlations.values())


class TestRoundData:
    def test_prepare_round_groups_patterns_once(self):
        estimator = make_estimator()
        profiles = example_profiles()
        profiles[1, 0] = np.nan
        profiles[2, :] = np.nan
        estimator.initialize(profiles)
        data = estimator.prepare_round(profiles, np.array([5, 5, 5, 5]), np.array([5, 5, 5, 5]))
        patterns = {pattern for pattern, _, _ in data.patterns}
        assert patterns == {(0, 1, 2), (1, 2), ()}
        assert data.n_workers == 4
        # Every worker row appears in exactly one pattern group.
        all_rows = np.concatenate([rows for _, rows, _ in data.patterns])
        assert sorted(all_rows.tolist()) == [0, 1, 2, 3]

    def test_binomial_term_is_parameter_independent_part(self):
        estimator = make_estimator()
        estimator.initialize(example_profiles())
        correct = np.array([3.0, 0.0, 1.0, 2.0])
        wrong = np.array([1.0, 4.0, 3.0, 2.0])
        data = estimator.prepare_round(example_profiles(), correct, wrong)
        rule = data.rule
        expected = (
            correct[:, None] * rule.log_nodes[None, :]
            + wrong[:, None] * rule.log_one_minus_nodes[None, :]
            + rule.log_weights[None, :]
        )
        np.testing.assert_allclose(data.binomial_term, expected)

    def test_update_with_both_engines_improves_likelihood(self, monkeypatch):
        profiles = example_profiles()
        correct = np.array([17, 12, 9, 5])
        wrong = np.array([3, 8, 11, 15])
        for oracle in (True, False):
            with monkeypatch.context() as patched:
                if oracle:
                    use_scalar_likelihood(patched)
                estimator = make_estimator(n_epochs=6, rng=2)
                estimator.initialize(profiles)
                before = log_likelihood(estimator, estimator.model, profiles, correct, wrong)
                estimator.update(profiles, correct, wrong)
                after = log_likelihood(estimator, estimator.model, profiles, correct, wrong)
            assert after >= before - 1e-6, oracle
