"""Bit-identity of the packed Eq. (11) fit and the ``sum_of_squares`` reference.

``fit_learning_rate`` evaluates the objective on arrays packed once per
worker; ``sum_of_squares`` is the term-by-term reference.  The two must agree
exactly -- every objective value, every fitted ``alpha`` and, end to end,
every :class:`~repro.campaign.Campaign` report.  Comparisons use ``==``,
never ``approx``.  Mirrors ``tests/test_cpe_equivalence.py``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Campaign
from repro.irt.fitting import DEFAULT_ALPHA_BOUNDS, AlphaFitObservation, fit_learning_rate, sum_of_squares
from repro.stats.optimize import minimize_scalar_bounded

N_GRID = 40

# ``0.3493787908695549 ** 2`` (libm pow) and ``0.3493787908695549 *
# 0.3493787908695549`` differ in the last bit.  A zero-exposure term at
# difficulty 0 predicts 0.5 for every alpha, so this observed accuracy makes
# its deviation exactly the witness at every grid point and Brent step.
SQUARING_WITNESS = 0.3493787908695549
WITNESS_ACCURACY = 0.15062120913044508


def reference_fit(observations, bounds=DEFAULT_ALPHA_BOUNDS) -> float:
    lower, upper = bounds
    return float(
        minimize_scalar_bounded(lambda a: sum_of_squares(a, observations), lower, upper, n_grid=N_GRID)
    )


def packed_kernel(observations):
    """The ``(objective, grid_evaluator)`` pair ``fit_learning_rate`` hands the minimiser."""
    captured = {}

    def capture(objective, lower, upper, n_grid, grid_evaluator):
        captured.update(objective=objective, grid_evaluator=grid_evaluator)
        return lower

    with mock.patch("repro.irt.fitting.minimize_scalar_bounded", capture):
        fit_learning_rate(observations)
    return captured["objective"], captured["grid_evaluator"]


def term(exposure, difficulty, accuracy, weight=1.0) -> AlphaFitObservation:
    return AlphaFitObservation(
        exposure=exposure, difficulty=difficulty, observed_accuracy=accuracy, weight=weight
    )


terms = st.builds(
    term,
    exposure=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0)),
    difficulty=st.floats(min_value=-6.0, max_value=6.0),
    accuracy=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    weight=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0)),
)
observation_lists = st.one_of(
    st.lists(terms, min_size=1, max_size=8),
    # Duplicate terms: the same residual counted twice.
    st.lists(terms, min_size=1, max_size=4).map(lambda listed: listed + listed),
)
bound_pairs = st.sampled_from([DEFAULT_ALPHA_BOUNDS, (0.0, 1.0), (-2.0, 3.0)])


class TestPackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(observation_lists, bound_pairs)
    def test_fit_equals_reference(self, observations, bounds):
        assert fit_learning_rate(observations, bounds=bounds) == reference_fit(observations, bounds)

    @settings(max_examples=100, deadline=None)
    @given(observation_lists, st.lists(st.floats(min_value=-3.0, max_value=12.0), min_size=1, max_size=6))
    def test_objective_equals_sum_of_squares(self, observations, alphas):
        objective, _ = packed_kernel(observations)
        for alpha in alphas:
            assert objective(alpha) == sum_of_squares(alpha, observations)

    @settings(max_examples=100, deadline=None)
    @given(observation_lists)
    def test_grid_evaluator_equals_per_point_list(self, observations):
        objective, grid_evaluator = packed_kernel(observations)
        grid = np.linspace(*DEFAULT_ALPHA_BOUNDS, N_GRID)
        values = grid_evaluator(grid)
        assert values.tolist() == [objective(float(x)) for x in grid]
        assert values.tolist() == [sum_of_squares(float(x), observations) for x in grid]

    def test_random_terms_equal_reference(self):
        # One weight-1 term per fit, so each value is a single square that no sum can round
        # away; uniform draws square differently under ``d * d`` about once in a thousand.
        rng = np.random.default_rng(0)
        grid = np.linspace(*DEFAULT_ALPHA_BOUNDS, 200)
        for _ in range(200):
            observations = [term(rng.uniform(0, 200), rng.normal(0, 2), rng.uniform(0, 1))]
            _, grid_evaluator = packed_kernel(observations)
            assert grid_evaluator(grid).tolist() == [sum_of_squares(float(x), observations) for x in grid]

    def test_squaring_witness(self):
        witness = term(0.0, 0.0, WITNESS_ACCURACY)
        assert SQUARING_WITNESS**2 != SQUARING_WITNESS * SQUARING_WITNESS
        objective, grid_evaluator = packed_kernel([witness])
        assert objective(0.7) == sum_of_squares(0.7, [witness]) == SQUARING_WITNESS**2
        assert set(grid_evaluator(np.linspace(0.0, 10.0, N_GRID)).tolist()) == {SQUARING_WITNESS**2}
        observations = [witness, term(12.0, 0.4, 0.81, weight=6.0), term(30.0, 0.0, 0.9, weight=10.0)]
        assert fit_learning_rate(observations) == reference_fit(observations)

    @pytest.mark.parametrize(
        "observations",
        [
            pytest.param([term(0.0, 0.3, 0.7), term(0.0, -1.0, 0.2, weight=4.0)], id="flat-objective"),
            pytest.param([term(20.0, 0.0, 0.0, weight=5.0), term(40.0, 0.0, 0.0)], id="minimum-at-lower"),
            pytest.param([term(20.0, 5.0, 1.0, weight=5.0), term(40.0, 5.0, 1.0)], id="minimum-at-upper"),
            pytest.param([term(10.0, 0.2, 0.6, weight=0.0), term(15.0, 0.2, 0.7, weight=0.0)], id="zero-weights"),
        ],
    )
    def test_edge_cases_equal_reference(self, observations):
        _, grid_evaluator = packed_kernel(observations)
        grid = np.linspace(*DEFAULT_ALPHA_BOUNDS, N_GRID)
        assert grid_evaluator(grid).tolist() == [sum_of_squares(float(x), observations) for x in grid]
        assert fit_learning_rate(observations) == reference_fit(observations)

    def test_bound_minima_are_reached(self):
        lower, upper = DEFAULT_ALPHA_BOUNDS
        assert fit_learning_rate([term(20.0, 0.0, 0.0, weight=5.0)]) == pytest.approx(lower, abs=1e-4)
        assert fit_learning_rate([term(20.0, 5.0, 1.0, weight=5.0)]) == pytest.approx(upper, abs=1e-4)


@pytest.mark.parametrize("dataset", ["S-3", "S-4:mixed20"])
def test_campaign_identical_with_reference_fit(dataset, monkeypatch):
    """Full Campaign.run(): the packed fit changes nothing, bit for bit.

    The LGE estimator calls ``fit_learning_rate`` through its module, so
    the reference fit is substituted there.
    """
    reference_calls = []

    def reference(observations, bounds=DEFAULT_ALPHA_BOUNDS):
        observations = list(observations)
        reference_calls.append(len(observations))
        return reference_fit(observations, bounds) if observations else float(bounds[0])

    outcomes = []
    for substitute in (False, True):
        if substitute:
            monkeypatch.setattr("repro.core.lge.fit_learning_rate", reference)
        campaign = Campaign(dataset=dataset, selector="ours", seed=5, cpe_epochs=4)
        report = campaign.run()
        outcomes.append((report.to_dict(), campaign.result().diagnostics["fitted_alphas"]))
    assert reference_calls, "the reference fit never ran"
    assert outcomes[0] == outcomes[1]
