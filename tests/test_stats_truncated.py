"""Tests for truncated-normal sampling and moments."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from repro.stats import truncated
from repro.stats.mvn import MultivariateNormalModel, nearest_positive_definite
from repro.stats.truncated import (
    sample_truncated_mvn,
    sample_truncated_normal,
    truncated_normal_mean,
    truncated_normal_variance,
)


class TestUnivariateSampling:
    def test_samples_respect_bounds(self):
        samples = sample_truncated_normal(0.5, 0.3, 0.0, 1.0, size=5000, rng=0)
        assert samples.min() >= 0.0
        assert samples.max() <= 1.0

    def test_matches_scipy_truncnorm_mean(self):
        samples = sample_truncated_normal(0.7, 0.2, 0.0, 1.0, size=40000, rng=1)
        a, b = (0.0 - 0.7) / 0.2, (1.0 - 0.7) / 0.2
        expected = sps.truncnorm(a, b, loc=0.7, scale=0.2).mean()
        assert samples.mean() == pytest.approx(expected, abs=5e-3)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_normal(0.5, 0.1, 1.0, 0.0, size=10)

    def test_invalid_std_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_normal(0.5, 0.0, 0.0, 1.0, size=10)

    def test_degenerate_window_falls_back_to_clipping(self):
        samples = sample_truncated_normal(50.0, 0.1, 0.0, 1.0, size=100, rng=2)
        assert np.all((samples >= 0.0) & (samples <= 1.0))


class TestTruncatedMoments:
    def test_mean_matches_scipy(self):
        a, b = (0.0 - 0.6) / 0.25, (1.0 - 0.6) / 0.25
        expected = sps.truncnorm(a, b, loc=0.6, scale=0.25).mean()
        assert truncated_normal_mean(0.6, 0.25, 0.0, 1.0) == pytest.approx(expected, rel=1e-6)

    def test_variance_matches_scipy(self):
        a, b = (0.0 - 0.6) / 0.25, (1.0 - 0.6) / 0.25
        expected = sps.truncnorm(a, b, loc=0.6, scale=0.25).var()
        assert truncated_normal_variance(0.6, 0.25, 0.0, 1.0) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("lower, upper", [(-np.inf, 1.0), (0.0, np.inf), (0.0, 1.0)])
    def test_variance_matches_scipy_with_one_sided_bounds(self, lower, upper):
        expected = sps.truncnorm(lower, upper).var()
        assert truncated_normal_variance(0.0, 1.0, lower, upper) == pytest.approx(expected, rel=1e-12)

    def test_mean_inside_bounds(self):
        assert 0.0 <= truncated_normal_mean(-2.0, 0.5, 0.0, 1.0) <= 1.0
        assert 0.0 <= truncated_normal_mean(3.0, 0.5, 0.0, 1.0) <= 1.0

    def test_zero_std_clips_mean(self):
        assert truncated_normal_mean(1.7, 0.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_symmetric_case_is_midpoint(self):
        assert truncated_normal_mean(0.5, 0.2, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)


@st.composite
def model_blocks(draw):
    """1-5 models sharing one mean: inside, straddling or outside the unit box."""
    dimension = draw(st.integers(2, 5))
    mean = draw(hnp.arrays(float, dimension, elements=st.floats(-0.5, 1.5)))
    models = []
    for _ in range(draw(st.integers(1, 5))):
        sigma = draw(hnp.arrays(float, dimension, elements=st.floats(0.01, 3.0)))
        upper = draw(hnp.arrays(float, dimension * (dimension - 1) // 2, elements=st.floats(-1.0, 1.0)))
        rho = np.eye(dimension)
        rho[np.triu_indices(dimension, k=1)] = upper
        models.append(MultivariateNormalModel.from_moments(mean, sigma, rho + np.triu(rho, k=1).T))
    return models


def multivariate_normal_rejection(model, size, generator, rounds):
    """Rejection sampling over ``Generator.multivariate_normal`` (the sampler's specification)."""
    covariance = nearest_positive_definite(model.covariance)
    accepted = np.empty((0, model.dimension))
    remaining = size
    for _ in range(rounds):
        if remaining <= 0:
            break
        batch = generator.multivariate_normal(model.mean, covariance, size=max(remaining * 2, 16))
        good = batch[np.all((batch > 0.0) & (batch < 1.0), axis=1)][:remaining]
        accepted = np.vstack([accepted, good])
        remaining -= good.shape[0]
    if remaining > 0:
        batch = generator.multivariate_normal(model.mean, covariance, size=remaining)
        accepted = np.vstack([accepted, np.clip(batch, 1e-6, 1.0 - 1e-6)])
    return accepted


class TestMultivariateSampling:
    def model(self) -> MultivariateNormalModel:
        return MultivariateNormalModel.from_moments(
            [0.6, 0.5], [0.2, 0.2], np.array([[1.0, 0.6], [0.6, 1.0]])
        )

    def test_shape_and_bounds(self):
        samples = sample_truncated_mvn(self.model(), size=500, rng=0)
        assert samples.shape == (500, 2)
        assert samples.min() > 0.0
        assert samples.max() < 1.0

    def test_zero_size(self):
        samples = sample_truncated_mvn(self.model(), size=0, rng=0)
        assert samples.shape == (0, 2)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            sample_truncated_mvn(self.model(), size=-1, rng=0)

    def test_correlation_roughly_preserved(self):
        samples = sample_truncated_mvn(self.model(), size=6000, rng=3)
        correlation = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert correlation > 0.35

    def test_deterministic_given_seed(self):
        a = sample_truncated_mvn(self.model(), size=50, rng=9)
        b = sample_truncated_mvn(self.model(), size=50, rng=9)
        np.testing.assert_allclose(a, b)

    def test_extreme_mean_falls_back_to_clipping(self):
        model = MultivariateNormalModel.from_moments([5.0, 5.0], [0.1, 0.1])
        samples = sample_truncated_mvn(model, size=20, rng=0, max_rejection_rounds=2)
        assert np.all((samples > 0.0) & (samples < 1.0))

    @given(models=model_blocks(), data=st.data())
    def test_equals_multivariate_normal_rejection(self, models, data):
        """Each draw equals the rejection loop over ``Generator.multivariate_normal``.

        Same samples bit for bit, and the generator left in the same state,
        whether the models are drawn one at a time or as one block.
        """
        size = data.draw(st.integers(1, 300))
        rounds = data.draw(st.integers(1, 6))
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(models), max_size=len(models)))
        generators = [np.random.default_rng(seed) for seed in seeds]
        block = truncated.sample_truncated_mvn_block(
            models[0].mean,
            np.stack([model.covariance for model in models]),
            generators,
            size,
            max_rejection_rounds=rounds,
        )
        for model, seed, generator, drawn in zip(models, seeds, generators, block):
            oracle = np.random.default_rng(seed)
            single = np.random.default_rng(seed)
            expected = multivariate_normal_rejection(model, size, oracle, rounds)
            assert sample_truncated_mvn(model, size, rng=single, max_rejection_rounds=rounds).tobytes() == (
                expected.tobytes()
            )
            assert drawn.tobytes() == expected.tobytes()
            assert generator.bit_generator.state == oracle.bit_generator.state == single.bit_generator.state

    def test_covariance_failing_the_psd_check_warns_like_multivariate_normal(self, monkeypatch):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            np.random.default_rng(0).multivariate_normal(np.zeros(2), indefinite)
        monkeypatch.setattr(truncated, "nearest_positive_definite", lambda matrix: matrix)
        with pytest.warns(RuntimeWarning, match="positive-semidefinite"):
            truncated.sample_truncated_mvn_block(np.zeros(2), indefinite[None], [np.random.default_rng(0)], 1)


def assert_bit_identical(ours, scipys):
    """Same type, shape and bits — NaN compared as NaN (scipy's carries no sign)."""
    assert type(ours) is type(scipys)
    ours, scipys = np.asarray(ours), np.asarray(scipys)
    assert ours.shape == scipys.shape
    nan = np.isnan(scipys)
    assert np.array_equal(np.isnan(ours), nan)
    assert ours[~nan].tobytes() == scipys[~nan].tobytes()


#: Every float64, including ±inf, ±0, NaN and subnormals.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
#: Points where the normal's tails are still representable, drawn densely.
TAIL_FLOAT = st.floats(min_value=-40.0, max_value=40.0)
#: Probabilities, with the closed ends and values just outside them.
PROBABILITY = st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from([0.0, 1.0, 0.5, 5e-324])


class TestStandardNormalMatchesScipy:
    """The module's own ndtr/ndtri/pdf equal ``scipy.stats.norm`` bit for bit."""

    @given(ANY_FLOAT | TAIL_FLOAT)
    def test_scalar_cdf_and_pdf(self, x):
        assert_bit_identical(truncated._norm_cdf(x), sps.norm.cdf(x))
        # Both pdfs compute ``-x**2 / 2``.  Above |x| ~ 1.3e154 the square
        # overflows to inf and both correctly return 0; that overflow is
        # expected here, so it is silenced on both sides.
        with np.errstate(over="ignore"):
            assert_bit_identical(truncated._norm_pdf(x), sps.norm.pdf(x))

    @given(PROBABILITY)
    def test_scalar_ppf(self, q):
        assert_bit_identical(truncated._norm_ppf(q), sps.norm.ppf(q))

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6), elements=TAIL_FLOAT))
    def test_arrays(self, x):
        assert_bit_identical(truncated._norm_cdf(x), sps.norm.cdf(x))
        assert_bit_identical(truncated._norm_pdf(x), sps.norm.pdf(x))
        q = truncated._norm_cdf(x)
        assert_bit_identical(truncated._norm_ppf(q), sps.norm.ppf(q))

    def test_scalar_rounding_case(self):
        # numpy scalar math puts this pdf 1 ulp away from scipy's array loop.
        x = -2.512427521567873
        assert_bit_identical(truncated._norm_pdf(x), sps.norm.pdf(x))


def test_package_imports_leave_scipy_stats_unloaded():
    src = str(Path(truncated.__file__).resolve().parents[2])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import repro.campaign, repro.serving, repro.marketplace\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
