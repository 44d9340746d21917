"""Per-worker learning-rate fitting (Eq. 11).

Each round, the LGE component refits every remaining worker's learning
parameter ``alpha_i`` by least squares against two kinds of evidence:

* the worker's historical accuracy on every prior domain ``d``, matched by
  the learning-curve prediction at exposure ``n_{i,d}`` (the number of tasks
  the worker completed on that domain) and difficulty ``beta_d``;
* the CPE-estimated target-domain accuracy of every completed round ``j``,
  matched by the learning-curve prediction at exposure ``K_{j-1}`` (what the
  worker had been trained with when producing those answers) and difficulty
  ``beta_T``.

Both kinds reduce to generic ``(exposure, difficulty, observed accuracy)``
triples, so the fit is a bounded one-dimensional least-squares problem.

:func:`sum_of_squares` is the readable reference form of the objective.
:func:`fit_learning_rate` packs the terms into arrays once and evaluates the
same operations in the same order, so every objective value -- and hence
every fitted ``alpha`` -- equals the reference bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence

import numpy as np

from repro.irt.learning_curve import LearningCurveModel
from repro.irt.rasch import sigmoid
from repro.stats.optimize import minimize_scalar_bounded

DEFAULT_ALPHA_BOUNDS = (0.0, 10.0)


@dataclass(frozen=True)
class AlphaFitObservation:
    """One ``(exposure, difficulty, observed accuracy)`` residual term of Eq. 11.

    Attributes
    ----------
    exposure:
        Cumulative number of tasks behind the observation (``n_{i,d}`` for a
        prior domain, ``K_{j-1}`` for a target-domain round).
    difficulty:
        The domain difficulty ``beta`` applicable to the observation.
    observed_accuracy:
        The accuracy the learning-curve prediction should match (historical
        accuracy ``h_{i,d}`` or CPE estimate ``p_{j,i}``).
    weight:
        Optional non-negative weight for the squared residual.
    """

    exposure: float
    difficulty: float
    observed_accuracy: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("exposure", "difficulty", "observed_accuracy", "weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.exposure < 0:
            raise ValueError(f"exposure must be non-negative, got {self.exposure}")
        if not 0.0 <= self.observed_accuracy <= 1.0:
            raise ValueError(f"observed_accuracy must lie in [0, 1], got {self.observed_accuracy}")
        if self.weight < 0:
            raise ValueError(f"weight must be non-negative, got {self.weight}")


def sum_of_squares(alpha: float, observations: Sequence[AlphaFitObservation]) -> float:
    """The Eq. (11) objective evaluated at a candidate ``alpha``."""
    total = 0.0
    for obs in observations:
        model = LearningCurveModel(learning_rate=alpha, difficulty=obs.difficulty)
        predicted = model.probability(obs.exposure)
        total += obs.weight * (predicted - obs.observed_accuracy) ** 2
    return total


def fit_learning_rate(
    observations: Iterable[AlphaFitObservation],
    bounds: tuple[float, float] = DEFAULT_ALPHA_BOUNDS,
    n_grid: int = 40,
) -> float:
    """Least-squares estimate of the learning parameter ``alpha_i``.

    Parameters
    ----------
    observations:
        The residual terms assembled by the LGE estimator.
    bounds:
        Search interval for ``alpha``; the lower bound of 0 encodes the
        assumption that training never makes a worker worse in expectation.
    n_grid:
        Grid density for the global search that seeds the Brent refinement.

    Returns
    -------
    float
        The fitted ``alpha``; when no observations are supplied the lower
        bound is returned (a flat learning curve).
    """
    observation_list = list(observations)
    lower, upper = bounds
    if upper <= lower:
        raise ValueError("bounds must satisfy lower < upper")
    if not observation_list:
        return float(lower)
    objective, grid_evaluator = _packed_objective(observation_list)
    return float(minimize_scalar_bounded(objective, lower, upper, n_grid=n_grid, grid_evaluator=grid_evaluator))


def _packed_objective(
    observations: Sequence[AlphaFitObservation],
) -> tuple[Callable[[float], float], Callable[[np.ndarray], np.ndarray]]:
    """:func:`sum_of_squares` over arrays packed once: a scalar and a grid form.

    Both repeat the reference's operations in its order -- ``alpha *
    log1p(exposure) - difficulty``, :func:`~repro.irt.rasch.sigmoid`, the
    deviation, then a left-to-right sum of ``weight * deviation ** 2`` -- so
    their values equal ``sum_of_squares`` bit for bit.  The square stays a
    Python ``** 2`` (libm ``pow``, as in the reference): ``d * d``,
    ``np.square`` and ``np.power`` end in a different last bit for about one
    deviation in a thousand.
    """
    log_exposure = np.log1p(np.array([obs.exposure for obs in observations], dtype=float))
    difficulty = np.array([obs.difficulty for obs in observations], dtype=float)
    observed = np.array([obs.observed_accuracy for obs in observations], dtype=float)
    weights = np.array([obs.weight for obs in observations], dtype=float).tolist()

    def weighted_squares(deviations: List[float]) -> float:
        total = 0.0
        for weight, deviation in zip(weights, deviations):
            total += weight * deviation ** 2
        return total

    def objective(alpha: float) -> float:
        return weighted_squares((sigmoid(alpha * log_exposure - difficulty) - observed).tolist())

    def grid_evaluator(grid: np.ndarray) -> np.ndarray:
        deviations = sigmoid(np.multiply.outer(grid, log_exposure) - difficulty) - observed
        return np.array([weighted_squares(row) for row in deviations.tolist()])

    return objective, grid_evaluator


__all__ = ["AlphaFitObservation", "fit_learning_rate", "sum_of_squares", "DEFAULT_ALPHA_BOUNDS"]
