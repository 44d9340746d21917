"""Tests for the optimisation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stats.optimize import (
    finite_difference_gradient,
    finite_difference_gradient_batch,
    gradient_descent,
    minimize_scalar_bounded,
    perturbation_stack,
)


class TestFiniteDifferenceGradient:
    def test_quadratic_gradient(self):
        def objective(theta):
            return float(np.sum(theta**2))

        point = np.array([1.0, -2.0, 0.5])
        gradient = finite_difference_gradient(objective, point)
        np.testing.assert_allclose(gradient, 2 * point, rtol=1e-4)

    def test_mask_freezes_coordinates(self):
        def objective(theta):
            return float(np.sum(theta**2))

        gradient = finite_difference_gradient(objective, np.array([1.0, 1.0]), mask=np.array([True, False]))
        assert gradient[1] == 0.0
        assert gradient[0] != 0.0


class TestFiniteDifferenceGradientBatch:
    @staticmethod
    def objective(theta):
        return float(np.sum(theta**2) + np.prod(theta))

    @classmethod
    def objective_batch(cls, matrix):
        return np.array([cls.objective(row) for row in matrix])

    def test_perturbation_stack_layout(self):
        stack, indices = perturbation_stack(np.array([1.0, 2.0, 3.0]), step=0.5)
        assert stack.shape == (6, 3)
        np.testing.assert_array_equal(indices, [0, 1, 2])
        np.testing.assert_allclose(stack[0], [1.5, 2.0, 3.0])
        np.testing.assert_allclose(stack[1], [0.5, 2.0, 3.0])
        np.testing.assert_allclose(stack[4], [1.0, 2.0, 3.5])

    def test_perturbation_stack_respects_mask(self):
        stack, indices = perturbation_stack(np.zeros(4), step=1.0, mask=np.array([0, 1, 0, 1], bool))
        assert stack.shape == (4, 4)
        np.testing.assert_array_equal(indices, [1, 3])

    def test_matches_sequential_gradient(self):
        point = np.array([1.0, -2.0, 0.5, 3.0])
        sequential = finite_difference_gradient(self.objective, point)
        batched = finite_difference_gradient_batch(self.objective_batch, point)
        np.testing.assert_allclose(batched, sequential, atol=1e-12)

    def test_matches_sequential_with_mask(self):
        point = np.array([1.0, -2.0, 0.5])
        mask = np.array([True, False, True])
        sequential = finite_difference_gradient(self.objective, point, mask=mask)
        batched = finite_difference_gradient_batch(self.objective_batch, point, mask=mask)
        np.testing.assert_allclose(batched, sequential, atol=1e-12)
        assert batched[1] == 0.0

    def test_fully_masked_returns_zero(self):
        gradient = finite_difference_gradient_batch(
            self.objective_batch, np.ones(3), mask=np.zeros(3, dtype=bool)
        )
        np.testing.assert_array_equal(gradient, np.zeros(3))

    def test_wrong_batch_shape_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient_batch(lambda matrix: np.zeros(3), np.ones(2))

    def test_batch_gradient_hook_drives_gradient_descent(self):
        result = gradient_descent(
            objective=lambda theta: float(np.sum(theta**2)),
            initial=np.array([2.0, -3.0]),
            learning_rates=0.2,
            n_epochs=100,
            gradient=lambda theta: finite_difference_gradient_batch(
                lambda matrix: np.sum(matrix**2, axis=1), theta
            ),
        )
        np.testing.assert_allclose(result.parameters, np.zeros(2), atol=1e-3)


class TestGradientDescent:
    def test_converges_on_quadratic(self):
        result = gradient_descent(
            objective=lambda t: float(np.sum((t - 3.0) ** 2)),
            initial=np.zeros(2),
            learning_rates=0.1,
            n_epochs=200,
        )
        np.testing.assert_allclose(result.parameters, [3.0, 3.0], atol=1e-2)
        assert result.objective < 1e-3

    def test_objective_history_is_monotone_with_backtracking(self):
        result = gradient_descent(
            objective=lambda t: float(np.sum(t**4 - 2 * t**2)),
            initial=np.array([2.0]),
            learning_rates=0.5,  # intentionally too large; backtracking must rescue it
            n_epochs=50,
        )
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_projection_applied(self):
        result = gradient_descent(
            objective=lambda t: float(np.sum((t - 5.0) ** 2)),
            initial=np.zeros(1),
            learning_rates=0.5,
            n_epochs=100,
            project=lambda t: np.clip(t, 0.0, 1.0),
        )
        assert result.parameters[0] == pytest.approx(1.0, abs=1e-6)

    def test_per_coordinate_learning_rates(self):
        result = gradient_descent(
            objective=lambda t: float(np.sum((t - 1.0) ** 2)),
            initial=np.zeros(2),
            learning_rates=np.array([0.2, 0.0]),
            n_epochs=100,
        )
        assert result.parameters[0] == pytest.approx(1.0, abs=1e-3)
        assert result.parameters[1] == pytest.approx(0.0)

    def test_rate_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gradient_descent(lambda t: float(t @ t), np.zeros(3), np.zeros(2), 5)

    def test_custom_gradient_used(self):
        calls = []

        def gradient(theta):
            calls.append(1)
            return 2 * (theta - 1.0)

        result = gradient_descent(
            objective=lambda t: float(np.sum((t - 1.0) ** 2)),
            initial=np.zeros(1),
            learning_rates=0.3,
            n_epochs=60,
            gradient=gradient,
        )
        assert calls
        assert result.parameters[0] == pytest.approx(1.0, abs=1e-3)

    def test_non_finite_gradient_stops_cleanly(self):
        result = gradient_descent(
            objective=lambda t: float(np.sum(t**2)),
            initial=np.array([1.0]),
            learning_rates=0.1,
            n_epochs=10,
            gradient=lambda t: np.array([np.nan]),
        )
        np.testing.assert_allclose(result.parameters, [1.0])


class TestMinimizeScalarBounded:
    def test_simple_parabola(self):
        assert minimize_scalar_bounded(lambda x: (x - 0.3) ** 2, 0.0, 1.0) == pytest.approx(0.3, abs=1e-3)

    def test_boundary_minimum(self):
        assert minimize_scalar_bounded(lambda x: x, 0.0, 1.0) == pytest.approx(0.0, abs=1e-3)

    def test_multi_modal_finds_global(self):
        def objective(x):
            return np.sin(10 * x) + 0.5 * (x - 0.8) ** 2

        result = minimize_scalar_bounded(objective, 0.0, 2.0, n_grid=60)
        values = [objective(x) for x in np.linspace(0, 2, 2000)]
        assert objective(result) <= min(values) + 1e-2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            minimize_scalar_bounded(lambda x: x, 1.0, 0.0)

    def test_grid_evaluator_replaces_the_per_point_grid(self):
        # Products and sums only: the array form equals the scalar form bit for bit.
        def objective(x):
            return (x - 0.3) * (x - 0.3) * (x - 1.7) * (x - 1.7) + 0.1 * x

        scalar_calls = []
        grids = []

        def counted(x):
            scalar_calls.append(x)
            return objective(x)

        def grid_evaluator(grid):
            grids.append(grid)
            return objective(grid)

        batched = minimize_scalar_bounded(counted, 0.0, 2.0, n_grid=60, grid_evaluator=grid_evaluator)
        assert batched == minimize_scalar_bounded(objective, 0.0, 2.0, n_grid=60)
        assert batched == pytest.approx(0.28, abs=0.02)
        assert len(grids) == 1
        np.testing.assert_array_equal(grids[0], np.linspace(0.0, 2.0, 60))
        # Only the Brent refinement evaluates the scalar objective.
        assert 0 < len(scalar_calls) < 60
