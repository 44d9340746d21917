"""Tests for the Eq. (11) learning-rate fit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.irt.fitting import AlphaFitObservation, fit_learning_rate, sum_of_squares
from repro.irt.learning_curve import LearningCurveModel


def observations_from_truth(alpha: float, difficulty: float, exposures) -> list:
    model = LearningCurveModel(learning_rate=alpha, difficulty=difficulty)
    return [
        AlphaFitObservation(exposure=e, difficulty=difficulty, observed_accuracy=float(model.probability(e)))
        for e in exposures
    ]


class TestObservationValidation:
    def test_negative_exposure_rejected(self):
        with pytest.raises(ValueError):
            AlphaFitObservation(exposure=-1.0, difficulty=0.0, observed_accuracy=0.5)

    def test_accuracy_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AlphaFitObservation(exposure=1.0, difficulty=0.0, observed_accuracy=1.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AlphaFitObservation(exposure=1.0, difficulty=0.0, observed_accuracy=0.5, weight=-1.0)

    @pytest.mark.parametrize("field", ["exposure", "difficulty", "observed_accuracy", "weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, field, value):
        terms = {"exposure": 1.0, "difficulty": 0.0, "observed_accuracy": 0.5, "weight": 1.0}
        with pytest.raises(ValueError, match=field):
            AlphaFitObservation(**{**terms, field: value})


class TestFit:
    def test_recovers_true_alpha_from_clean_data(self):
        true_alpha = 0.35
        observations = observations_from_truth(true_alpha, 0.0, [5, 10, 20, 40])
        assert fit_learning_rate(observations) == pytest.approx(true_alpha, abs=0.02)

    def test_recovers_alpha_with_nonzero_difficulty(self):
        true_alpha = 0.6
        observations = observations_from_truth(true_alpha, 0.8, [3, 9, 27])
        assert fit_learning_rate(observations) == pytest.approx(true_alpha, abs=0.03)

    def test_zero_for_flat_learner(self):
        observations = observations_from_truth(0.0, 0.0, [5, 10, 20])
        assert fit_learning_rate(observations) == pytest.approx(0.0, abs=0.02)

    def test_empty_observations_returns_lower_bound(self):
        assert fit_learning_rate([], bounds=(0.0, 5.0)) == 0.0

    def test_weights_steer_fit(self):
        # Two inconsistent anchors; the heavily weighted one should dominate.
        fast = AlphaFitObservation(exposure=20, difficulty=0.0, observed_accuracy=0.9, weight=100.0)
        slow = AlphaFitObservation(exposure=20, difficulty=0.0, observed_accuracy=0.55, weight=1.0)
        alpha = fit_learning_rate([fast, slow])
        model = LearningCurveModel(alpha, 0.0)
        assert model.probability(20) > 0.8

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            fit_learning_rate([], bounds=(1.0, 0.0))

    def test_objective_zero_at_true_alpha(self):
        observations = observations_from_truth(0.25, 0.0, [2, 8, 32])
        assert sum_of_squares(0.25, observations) == pytest.approx(0.0, abs=1e-12)

    def test_fitted_alpha_minimises_objective(self):
        rng = np.random.default_rng(0)
        observations = [
            AlphaFitObservation(exposure=e, difficulty=0.2, observed_accuracy=float(np.clip(a, 0, 1)))
            for e, a in zip([5, 10, 20, 40], 0.5 + 0.1 * rng.standard_normal(4))
        ]
        alpha = fit_learning_rate(observations)
        best = sum_of_squares(alpha, observations)
        for candidate in np.linspace(0, 5, 100):
            assert best <= sum_of_squares(float(candidate), observations) + 1e-6
