"""Tests for the Learning Gain Estimator (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lge import LGEConfig, LearningGainEstimator
from repro.irt.learning_curve import LearningCurveModel


def make_estimator(**config_kwargs) -> LearningGainEstimator:
    config = LGEConfig(**config_kwargs)
    return LearningGainEstimator(
        prior_domains=["d1", "d2"],
        prior_domain_mean_accuracies=[0.7, 0.85],
        config=config,
    )


class TestConfig:
    def test_target_difficulty_from_at(self):
        config = LGEConfig(target_initial_accuracy=0.5)
        assert config.target_difficulty == pytest.approx(0.0)
        harder = LGEConfig(target_initial_accuracy=0.3)
        assert harder.target_difficulty > 0

    def test_invalid_at_rejected(self):
        with pytest.raises(ValueError):
            LGEConfig(target_initial_accuracy=1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LGEConfig(alpha_bounds=(2.0, 1.0))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LGEConfig(prior_anchor_weight=-1.0)


class TestFitWorker:
    def test_exposure_history_length_validated(self):
        estimator = make_estimator()
        with pytest.raises(ValueError):
            estimator.fit_worker("w", np.array([0.7, 0.8]), np.array([10, 10]), [0.6], [0.0])

    def test_fast_learner_gets_larger_alpha(self):
        estimator = make_estimator()
        accuracies = np.array([0.7, 0.85])
        counts = np.array([10.0, 10.0])
        exposures = [0.0, 10.0, 30.0]
        slow = estimator.fit_worker("slow", accuracies, counts, [0.52, 0.55], exposures)
        fast = estimator.fit_worker("fast", accuracies, counts, [0.60, 0.85], exposures)
        assert fast > slow

    def test_missing_prior_domains_are_skipped(self):
        estimator = make_estimator()
        alpha = estimator.fit_worker(
            "w", np.array([np.nan, np.nan]), np.array([0.0, 0.0]), [0.7, 0.8], [0.0, 10.0, 30.0]
        )
        assert np.isfinite(alpha)
        assert alpha >= 0

    @pytest.mark.parametrize("count", [np.nan, np.inf])
    def test_non_finite_historical_count_rejected(self, count):
        # max(nan, 0.0) is nan: the count must not reach the fit as a NaN exposure and weight.
        estimator = make_estimator()
        with pytest.raises(ValueError, match="exposure must be finite"):
            estimator.fit_worker(
                "w", np.array([0.8, 0.7]), np.array([count, 20.0]), [0.6, 0.7], [0.0, 10.0, 30.0]
            )
        assert "w" not in estimator.fitted_alphas

    def test_predict_requires_fit(self):
        estimator = make_estimator()
        with pytest.raises(KeyError):
            estimator.predict_worker("unknown", 10.0)

    def test_prediction_uses_fitted_curve(self):
        estimator = make_estimator()
        alpha = estimator.fit_worker(
            "w", np.array([0.75, 0.9]), np.array([10.0, 10.0]), [0.6, 0.7], [0.0, 10.0, 30.0]
        )
        expected = LearningCurveModel(alpha, estimator.target_difficulty).probability(30.0)
        assert estimator.predict_worker("w", 30.0) == pytest.approx(expected)

    def test_prediction_monotone_in_exposure(self):
        estimator = make_estimator()
        estimator.fit_worker("w", np.array([0.8, 0.9]), np.array([10.0, 10.0]), [0.65, 0.8], [0.0, 10.0, 30.0])
        assert estimator.predict_worker("w", 60.0) >= estimator.predict_worker("w", 30.0)


class TestEstimateBatch:
    def worker_matrices(self):
        worker_ids = ["w0", "w1", "w2"]
        accuracies = np.array([[0.85, 0.9], [0.65, 0.7], [0.45, 0.55]])
        counts = np.full((3, 2), 10.0)
        return worker_ids, accuracies, counts

    def test_output_shape_and_range(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8], "w1": [0.6], "w2": [0.45]}
        estimates = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0])
        assert estimates.shape == (3,)
        assert np.all((estimates >= 0.0) & (estimates <= 1.0))

    def test_ranking_follows_cpe_histories(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.85], "w1": [0.6], "w2": [0.4]}
        estimates = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 20.0])
        assert estimates[0] > estimates[1] > estimates[2]

    def test_row_alignment_validated(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        with pytest.raises(ValueError):
            estimator.estimate(worker_ids[:2], accuracies, counts, {}, [0.0, 10.0])

    def test_prediction_exposure_override(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        histories = {"w0": [0.8], "w1": [0.7], "w2": [0.6]}
        near = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0], prediction_exposure=10.0)
        far = estimator.estimate(worker_ids, accuracies, counts, histories, [0.0, 10.0], prediction_exposure=200.0)
        assert np.all(far >= near - 1e-9)

    def test_fitted_alphas_recorded(self):
        estimator = make_estimator()
        worker_ids, accuracies, counts = self.worker_matrices()
        estimator.estimate(worker_ids, accuracies, counts, {"w0": [0.7], "w1": [0.6], "w2": [0.5]}, [0.0, 10.0])
        assert set(estimator.fitted_alphas) == set(worker_ids)

    def test_prior_difficulties_exposed(self):
        estimator = make_estimator()
        betas = estimator.prior_difficulties
        assert betas.shape == (2,)
        assert betas[0] > betas[1]  # easier domain (0.85 mean) has lower difficulty
