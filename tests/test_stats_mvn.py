"""Tests for the multivariate normal model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats.mvn import (
    MultivariateNormalModel,
    _correlation_stack,
    _passes_cholesky_check,
    correlation_from_covariance,
    nearest_positive_definite,
)


def example_model() -> MultivariateNormalModel:
    rho = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])
    return MultivariateNormalModel(mean=np.array([0.7, 0.6, 0.5]), sigma=np.array([0.2, 0.15, 0.1]), rho=rho)


class TestConstruction:
    def test_covariance_round_trip(self):
        model = example_model()
        rebuilt = MultivariateNormalModel.from_covariance(model.mean, model.covariance)
        np.testing.assert_allclose(rebuilt.covariance, model.covariance, atol=1e-8)

    def test_from_moments_defaults_to_identity_correlation(self):
        model = MultivariateNormalModel.from_moments([0.5, 0.5], [0.1, 0.2])
        np.testing.assert_allclose(model.rho, np.eye(2))

    def test_dimension(self):
        assert example_model().dimension == 3

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            MultivariateNormalModel(mean=np.array([0.5, 0.5]), sigma=np.array([0.1]), rho=np.eye(2))

    def test_sigma_floor_applied(self):
        model = MultivariateNormalModel(mean=np.zeros(2), sigma=np.array([0.0, 0.1]), rho=np.eye(2))
        assert model.sigma[0] > 0

    def test_invalid_correlation_projected(self):
        # An inconsistent correlation matrix gets projected to a valid one
        # without touching the standard deviations.
        rho = np.array([[1.0, 0.95, -0.95], [0.95, 1.0, 0.95], [-0.95, 0.95, 1.0]])
        model = MultivariateNormalModel(mean=np.zeros(3), sigma=np.array([0.2, 0.2, 0.2]), rho=rho)
        np.testing.assert_allclose(model.sigma, [0.2, 0.2, 0.2])
        np.linalg.cholesky(model.covariance + 1e-10 * np.eye(3))

    def test_marginal(self):
        model = example_model()
        marginal = model.marginal([0, 2])
        assert marginal.dimension == 2
        np.testing.assert_allclose(marginal.mean, model.mean[[0, 2]])
        assert marginal.rho[0, 1] == pytest.approx(model.rho[0, 2])


class TestConditional:
    def test_matches_closed_form_bivariate(self):
        model = MultivariateNormalModel(
            mean=np.array([0.6, 0.5]),
            sigma=np.array([0.2, 0.1]),
            rho=np.array([[1.0, 0.8], [0.8, 1.0]]),
        )
        observed = 0.8
        mean, var = model.conditional(np.array([observed]), [0], 1)
        expected_mean = 0.5 + 0.8 * (0.1 / 0.2) * (observed - 0.6)
        expected_var = (0.1**2) * (1 - 0.8**2)
        assert mean == pytest.approx(expected_mean, rel=1e-5)
        assert var == pytest.approx(expected_var, rel=1e-3)

    def test_no_observation_returns_marginal(self):
        model = example_model()
        mean, var = model.conditional(np.array([]), [], 2)
        assert mean == pytest.approx(model.mean[2])
        assert var == pytest.approx(model.covariance[2, 2])

    def test_batch_matches_single(self):
        model = example_model()
        observations = np.array([[0.75, 0.55], [0.6, 0.7]])
        batch_means, batch_var = model.conditional_batch(observations, [0, 1], 2)
        for row in range(2):
            mean, var = model.conditional(observations[row], [0, 1], 2)
            assert batch_means[row] == pytest.approx(mean)
            assert batch_var == pytest.approx(var)

    def test_target_in_observed_rejected(self):
        with pytest.raises(ValueError):
            example_model().conditional(np.array([0.5]), [1], 1)

    def test_stacked_batch_matches_per_model_batch(self):
        base = example_model()
        rng = np.random.default_rng(0)
        thetas = base.pack_parameters()[None, :] + rng.normal(0, 0.05, size=(5, 9))
        models = [MultivariateNormalModel.unpack_parameters(row, base.dimension) for row in thetas]
        observations = np.array([[0.75, 0.55], [0.6, 0.7], [0.5, 0.5]])
        canonical = MultivariateNormalModel.canonicalise(thetas, base.dimension)
        means, sigmas, rhos = MultivariateNormalModel.canonical_moments(canonical, base.dimension)
        covariances = rhos * (sigmas[:, :, None] * sigmas[:, None, :])
        stacked_means, stacked_vars = MultivariateNormalModel.conditional_batch_stacked(
            means, covariances, observations, [0, 1], 2
        )
        assert stacked_means.shape == (5, 3)
        for index, model in enumerate(models):
            single_means, single_var = model.conditional_batch(observations, [0, 1], 2)
            np.testing.assert_allclose(stacked_means[index], single_means, atol=1e-12)
            assert stacked_vars[index] == pytest.approx(single_var, abs=1e-12)

    def test_stacked_batch_empty_observation_set(self):
        model = example_model()
        means, covariances = np.stack([model.mean] * 2), np.stack([model.covariance] * 2)
        stacked_means, stacked_vars = MultivariateNormalModel.conditional_batch_stacked(
            means, covariances, np.zeros((4, 0)), [], 2
        )
        np.testing.assert_allclose(stacked_means, np.full((2, 4), model.mean[2]))
        np.testing.assert_allclose(stacked_vars, np.full(2, model.covariance[2, 2]))

    def test_conditional_variance_reduces_uncertainty(self):
        model = example_model()
        _, conditional_var = model.conditional(np.array([0.7, 0.6]), [0, 1], 2)
        assert conditional_var <= model.covariance[2, 2] + 1e-12


class TestDensityAndSampling:
    def test_log_pdf_matches_scipy(self):
        model = example_model()
        points = np.array([[0.7, 0.6, 0.5], [0.5, 0.5, 0.4]])
        expected = sps.multivariate_normal(model.mean, model.covariance).logpdf(points)
        np.testing.assert_allclose(model.log_pdf(points), expected, rtol=1e-6)

    def test_sampling_moments(self):
        model = example_model()
        samples = model.sample(20000, np.random.default_rng(0))
        np.testing.assert_allclose(samples.mean(axis=0), model.mean, atol=0.01)
        np.testing.assert_allclose(samples.std(axis=0), model.sigma, atol=0.01)


class TestParameterVector:
    def test_pack_unpack_round_trip(self):
        model = example_model()
        packed = model.pack_parameters()
        rebuilt = MultivariateNormalModel.unpack_parameters(packed, model.dimension)
        np.testing.assert_allclose(rebuilt.mean, model.mean)
        np.testing.assert_allclose(rebuilt.sigma, model.sigma)
        np.testing.assert_allclose(rebuilt.rho, model.rho, atol=1e-9)

    def test_parameter_slices_cover_vector(self):
        model = example_model()
        mean_s, sigma_s, rho_s = MultivariateNormalModel.parameter_slices(model.dimension)
        packed = model.pack_parameters()
        assert rho_s.stop == packed.shape[0]
        assert mean_s.stop == sigma_s.start

    def test_unpack_clamps_extreme_correlations(self):
        packed = example_model().pack_parameters()
        packed[-1] = 5.0  # way out of range
        rebuilt = MultivariateNormalModel.unpack_parameters(packed, 3)
        assert abs(rebuilt.rho[1, 2]) < 1.0

    def test_unpack_parameters_reads_a_shifted_vector(self):
        model = example_model()
        packed = model.pack_parameters()
        packed[0] += 0.05
        shifted = MultivariateNormalModel.unpack_parameters(packed, model.dimension)
        assert shifted.mean[0] == pytest.approx(model.mean[0] + 0.05)


#: Correlations that need clipping, projecting or both; 0.999 is the bound.
correlation_entry = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from([0.999, -0.999, 0.99, -0.99, 0.5, -0.5, 1.5, -1.5]),
)


@st.composite
def packed_rows(draw):
    """``(dimension, row)``: a packed parameter vector of 2-6 domains.

    One row in four has every correlation at -0.999, which for three or
    more domains is not a correlation matrix and must be projected; one in
    four has every correlation at 0.999, a valid matrix on the bound.
    """
    dimension = draw(st.integers(2, 6))
    n_corr = dimension * (dimension - 1) // 2
    means = draw(st.lists(st.floats(-0.5, 1.5), min_size=dimension, max_size=dimension))
    sigmas = draw(st.lists(st.floats(-0.1, 0.8), min_size=dimension, max_size=dimension))
    kind = draw(st.integers(0, 3))
    if kind < 2:
        rhos = [(-0.999, 0.999)[kind]] * n_corr
    else:
        rhos = draw(st.lists(correlation_entry, min_size=n_corr, max_size=n_corr))
    return dimension, np.array(means + sigmas + rhos)


#: Projected, these correlations leave a near-collinear pair beyond the 0.999
#: bound; clipping that one entry would break positive definiteness.
NEAR_COLLINEAR_ROW = (
    5,
    np.concatenate([[0.5] * 5, [0.2] * 5, [1.5, -0.999, 0.999, 0.99, -0.999, 1.5, 0.99, 1.5, 1.5, 0.999]]),
)


class TestCanonicalise:
    """The invariant the CPE update relies on: canonical rows need no further check."""

    @given(packed_rows())
    @example(NEAR_COLLINEAR_ROW)
    def test_canonical_rows_are_fixed_points_that_pass_the_check(self, drawn):
        dimension, row = drawn
        canonical = MultivariateNormalModel.canonicalise(row[None, :], dimension)
        _, _, rho_s = MultivariateNormalModel.parameter_slices(dimension)
        np.testing.assert_array_equal(
            MultivariateNormalModel.canonicalise(canonical, dimension), canonical
        )
        assert _passes_cholesky_check(_correlation_stack(canonical[:, rho_s], dimension))

    @given(packed_rows())
    @example(NEAR_COLLINEAR_ROW)
    def test_unchecked_moments_equal_the_scalar_unpack(self, drawn):
        dimension, row = drawn
        canonical = MultivariateNormalModel.canonicalise(row[None, :], dimension)
        means, sigmas, rhos = MultivariateNormalModel.canonical_moments(canonical, dimension)
        scalar = MultivariateNormalModel.unpack_parameters(row, dimension)
        np.testing.assert_array_equal(means[0], scalar.mean)
        np.testing.assert_array_equal(sigmas[0], scalar.sigma)
        upper = np.triu_indices(dimension)
        np.testing.assert_array_equal(rhos[0][upper], scalar.rho[upper])
        # A projected rho may be asymmetric in its last bits; the packed
        # form keeps its upper triangle.
        np.testing.assert_allclose(rhos[0], scalar.rho, rtol=0.0, atol=1e-15)

    def test_a_row_that_is_not_a_correlation_matrix_is_projected(self):
        row = np.concatenate([[0.5, 0.6, 0.7, 0.8], [0.1] * 4, [-0.999] * 6])
        _, _, rho_s = MultivariateNormalModel.parameter_slices(4)
        assert not _passes_cholesky_check(_correlation_stack(row[None, rho_s], 4))
        canonical = MultivariateNormalModel.canonicalise(row[None, :], 4)[0]
        assert not np.array_equal(canonical[rho_s], row[rho_s])
        np.testing.assert_array_equal(canonical[:8], row[:8])

    def test_rows_are_canonicalised_independently(self):
        rng = np.random.default_rng(5)
        rows = np.concatenate(
            [np.full((3, 4), 0.6), rng.uniform(-0.1, 0.5, (3, 4)), rng.uniform(-1.2, 1.2, (3, 6))], axis=1
        )
        rows[1, 8:] = -0.999  # projected: the batch is checked row by row
        stacked = MultivariateNormalModel.canonicalise(rows, 4)
        for index, row in enumerate(rows):
            np.testing.assert_array_equal(
                stacked[index], MultivariateNormalModel.canonicalise(row[None, :], 4)[0]
            )
            np.testing.assert_array_equal(
                stacked[index], MultivariateNormalModel.unpack_parameters(row, 4).pack_parameters()
            )

    def test_projection_that_would_clip_a_pair_stays_positive_definite(self):
        # The projection shrinks all correlations towards zero instead.
        model = MultivariateNormalModel.unpack_parameters(NEAR_COLLINEAR_ROW[1], 5)
        np.linalg.cholesky(model.rho + 1e-8 * np.eye(5))
        assert np.max(np.abs(model.rho - np.eye(5))) <= 0.999


class TestHelpers:
    def test_nearest_positive_definite_is_pd(self):
        matrix = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        projected = nearest_positive_definite(matrix)
        eigenvalues = np.linalg.eigvalsh(projected)
        assert np.all(eigenvalues > 0)

    def test_correlation_from_covariance(self):
        model = example_model()
        sigma, rho = correlation_from_covariance(model.covariance)
        np.testing.assert_allclose(sigma, model.sigma, rtol=1e-8)
        np.testing.assert_allclose(np.diag(rho), np.ones(3))
