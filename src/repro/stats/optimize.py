"""Optimisation helpers used by the CPE and LGE estimators.

Two flavours are needed:

* **Vector gradient descent** with a backtracking line search for the
  maximum-likelihood update of the multivariate-normal parameters
  (Eq. 6-7).  The caller passes its gradient through the ``gradient=``
  hook; the CPE passes the closed form of Eq. (5).  Central finite
  differences — scalar, or from one batched objective call
  (:func:`finite_difference_gradient_batch`) — are the default, the CPE's
  fallback where a conditioning solve is singular, and its test oracle.
* **Bounded scalar minimisation** for the per-worker learning-rate fit of
  Eq. (11), wrapped around :func:`scipy.optimize.minimize_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as spo

#: Central-difference step of :func:`gradient_descent`'s default gradient.
_FD_STEP = 1e-5
#: :func:`gradient_descent` stops once an accepted step improves the objective by less.
_TOLERANCE = 1e-10


@dataclass
class GradientDescentResult:
    """Outcome of a gradient-descent run."""

    parameters: np.ndarray
    objective: float
    objective_history: List[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False


def finite_difference_gradient(
    objective: Callable[[np.ndarray], float],
    parameters: np.ndarray,
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar objective.

    Parameters
    ----------
    objective:
        Callable mapping a parameter vector to a scalar.
    parameters:
        Point at which to evaluate the gradient.
    step:
        Per-coordinate perturbation size.
    mask:
        Optional boolean vector; coordinates where it is ``False`` get a zero
        gradient (used to freeze parameters such as prior-domain means that
        the paper estimates directly from historical data).
    """
    parameters = np.asarray(parameters, dtype=float)
    gradient = np.zeros_like(parameters)
    for index in range(parameters.size):
        if mask is not None and not mask[index]:
            continue
        forward = parameters.copy()
        backward = parameters.copy()
        forward[index] += step
        backward[index] -= step
        gradient[index] = (objective(forward) - objective(backward)) / (2.0 * step)
    return gradient


def perturbation_stack(
    parameters: np.ndarray,
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``2M`` central-difference evaluation points as one stacked matrix.

    Returns
    -------
    (stack, indices):
        ``stack`` has shape ``(2M, P)`` where ``M`` is the number of free
        (unmasked) coordinates: row ``2j`` perturbs coordinate
        ``indices[j]`` by ``+step``, row ``2j + 1`` by ``-step``.
    """
    parameters = np.asarray(parameters, dtype=float)
    indices = (
        np.flatnonzero(np.asarray(mask, dtype=bool))
        if mask is not None
        else np.arange(parameters.size)
    )
    stack = np.tile(parameters, (2 * indices.size, 1))
    rows = np.arange(indices.size)
    stack[2 * rows, indices] += step
    stack[2 * rows + 1, indices] -= step
    return stack, indices


def finite_difference_gradient_batch(
    objective_batch: Callable[[np.ndarray], np.ndarray],
    parameters: np.ndarray,
    step: float = 1e-5,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Central finite-difference gradient from ONE batched objective call.

    Numerically equivalent to :func:`finite_difference_gradient` but asks the
    objective for all ``2M`` perturbed parameter vectors at once, which lets
    a vectorised likelihood (e.g. the CPE's stacked Eq. (5) engine) amortise
    every per-evaluation invariant across the whole gradient.

    Parameters
    ----------
    objective_batch:
        Callable mapping a ``(batch, P)`` parameter matrix to a ``(batch,)``
        vector of objective values.
    parameters, step, mask:
        As in :func:`finite_difference_gradient`.
    """
    parameters = np.asarray(parameters, dtype=float)
    gradient = np.zeros_like(parameters)
    stack, indices = perturbation_stack(parameters, step=step, mask=mask)
    if indices.size == 0:
        return gradient
    values = np.asarray(objective_batch(stack), dtype=float)
    if values.shape != (stack.shape[0],):
        raise ValueError(
            f"objective_batch must return shape ({stack.shape[0]},), got {values.shape}"
        )
    gradient[indices] = (values[0::2] - values[1::2]) / (2.0 * step)
    return gradient


def gradient_descent(
    objective: Callable[[np.ndarray], float],
    initial: np.ndarray,
    learning_rates: Sequence[float] | float,
    n_epochs: int,
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    mask: Optional[np.ndarray] = None,
    max_backtracks: int = 8,
) -> GradientDescentResult:
    """Minimise ``objective`` by (projected) gradient descent with backtracking.

    A step that would *increase* the objective is retried with successively
    halved step sizes, up to ``max_backtracks`` tries; if none improves, the
    descent stops.  This keeps the CPE likelihood update monotone and
    prevents the parameter blow-ups a fixed step size can cause on steep
    likelihood surfaces.  The descent also stops once an accepted step
    improves the objective by less than ``1e-10``.

    Parameters
    ----------
    objective:
        Scalar function to minimise (the CPE uses the *negative*
        log-likelihood so that Eq. 6-7's ascent becomes a descent).
    initial:
        Starting parameter vector.
    learning_rates:
        Either a scalar or a per-coordinate vector of step sizes; the paper
        uses different rates for ``mu`` (1e-7) and ``Sigma`` (1e-4), which a
        per-coordinate vector expresses directly.
    n_epochs:
        Maximum number of update steps (the paper's ``G``).
    gradient:
        Optional analytic gradient; defaults to central finite differences
        with step ``1e-5``.
    project:
        Optional projection applied after every step (e.g. clamping standard
        deviations positive and correlations to ``(-1, 1)``).
    mask:
        Optional boolean vector of trainable coordinates.
    max_backtracks:
        Step sizes tried per epoch before the descent gives up.
    """
    parameters = np.asarray(initial, dtype=float).copy()
    rates = np.asarray(learning_rates, dtype=float)
    if rates.ndim == 0:
        rates = np.full_like(parameters, float(rates))
    if rates.shape != parameters.shape:
        raise ValueError("learning_rates must be scalar or match the parameter shape")

    history: List[float] = [float(objective(parameters))]
    converged = False
    iterations = 0
    for iterations in range(1, n_epochs + 1):
        grad = (
            gradient(parameters)
            if gradient is not None
            else finite_difference_gradient(objective, parameters, step=_FD_STEP, mask=mask)
        )
        if mask is not None:
            grad = np.where(mask, grad, 0.0)
        if not np.all(np.isfinite(grad)):
            converged = False
            break

        previous_value = history[-1]
        scale = 1.0
        candidate = parameters
        current = previous_value
        accepted = False
        for _ in range(max_backtracks):
            candidate = parameters - scale * rates * grad
            if project is not None:
                candidate = project(candidate)
            current = float(objective(candidate))
            if current <= previous_value:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            converged = True
            break

        parameters = candidate
        history.append(current)
        if abs(previous_value - current) < _TOLERANCE:
            converged = True
            break
    return GradientDescentResult(
        parameters=parameters,
        objective=history[-1],
        objective_history=history,
        n_iterations=iterations,
        converged=converged,
    )


def minimize_scalar_bounded(
    objective: Callable[[float], float],
    lower: float,
    upper: float,
    n_grid: int = 25,
    grid_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> float:
    """Minimise a scalar objective on ``[lower, upper]``.

    A coarse grid search seeds a bounded Brent refinement, which makes the
    routine robust to the mildly multi-modal least-squares objectives that
    arise when a worker's prior-domain accuracies disagree strongly with the
    learning-task feedback.

    Parameters
    ----------
    grid_evaluator:
        Optional batched form of ``objective`` for the seed grid: called once
        with the ``(n_grid,)`` grid, it must return
        ``np.array([objective(float(x)) for x in grid])`` bit for bit.  Any
        difference could move the grid minimum, and with it the Brent
        bracket and the result.  Omitted, the grid is evaluated point by
        point.
    """
    if upper <= lower:
        raise ValueError("upper must exceed lower")
    grid = np.linspace(lower, upper, n_grid)
    if grid_evaluator is None:
        values = np.array([objective(float(x)) for x in grid])
    else:
        values = np.asarray(grid_evaluator(grid), dtype=float)
    best = float(grid[int(np.argmin(values))])
    span = (upper - lower) / max(n_grid - 1, 1)
    bracket_lower = max(lower, best - 2.0 * span)
    bracket_upper = min(upper, best + 2.0 * span)
    result = spo.minimize_scalar(objective, bounds=(bracket_lower, bracket_upper), method="bounded")
    if result.success and result.fun <= values.min():
        return float(result.x)
    return best


__all__ = [
    "GradientDescentResult",
    "finite_difference_gradient",
    "finite_difference_gradient_batch",
    "gradient_descent",
    "minimize_scalar_bounded",
    "perturbation_stack",
]
