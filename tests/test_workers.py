"""Tests for worker profiles, behaviours, pools and population sampling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets.registry import get_spec
from repro.workers.behavior import LearningWorker, StaticWorker
from repro.workers.pool import WorkerPool
from repro.workers.population import PopulationConfig, sample_learning_population
from repro.workers.profile import WorkerProfile, profiles_to_matrix

from tests.conftest import make_profile


class TestWorkerProfile:
    def test_domains_sorted(self):
        profile = make_profile(accuracies={"z": 0.5, "a": 0.8}, counts={"z": 5, "a": 5})
        assert profile.domains == ("a", "z")

    def test_mismatched_domains_rejected(self):
        with pytest.raises(ValueError):
            WorkerProfile("w", {"a": 0.5}, {"b": 5})

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            WorkerProfile("w", {"a": 1.5}, {"a": 5})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            WorkerProfile("w", {"a": 0.5}, {"a": -1})

    def test_accuracy_vector_with_missing_domain(self):
        profile = make_profile(accuracies={"a": 0.8}, counts={"a": 10})
        vector = profile.accuracy_vector(["a", "b"])
        assert vector[0] == 0.8
        assert np.isnan(vector[1])

    def test_task_count_vector_missing_is_zero(self):
        profile = make_profile(accuracies={"a": 0.8}, counts={"a": 10})
        np.testing.assert_allclose(profile.task_count_vector(["a", "b"]), [10, 0])

    def test_observed_indices(self):
        profile = make_profile(accuracies={"b": 0.6}, counts={"b": 4})
        assert profile.observed_indices(["a", "b", "c"]) == [1]

    def test_with_domain_returns_new_profile(self):
        profile = make_profile()
        extended = profile.with_domain("c", 0.4, 3)
        assert "c" in extended.accuracies
        assert "c" not in profile.accuracies

    def test_profiles_to_matrix(self):
        profiles = [make_profile("w1"), make_profile("w2", accuracies={"a": 0.3}, counts={"a": 2})]
        accuracy, counts = profiles_to_matrix(profiles, ["a", "b"])
        assert accuracy.shape == (2, 2)
        assert np.isnan(accuracy[1, 1])
        assert counts[1, 1] == 0


class TestBehaviours:
    def test_static_worker_accuracy_constant(self):
        worker = StaticWorker(make_profile(), target_accuracy=0.7)
        assert worker.accuracy_at(0) == worker.accuracy_at(100) == 0.7

    def test_static_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            StaticWorker(make_profile(), target_accuracy=1.2)

    def test_learning_worker_starts_at_initial_accuracy(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.55, learning_rate=0.4)
        assert worker.accuracy_at(0) == pytest.approx(0.55)

    def test_learning_worker_improves_with_training(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.5, learning_rate=0.4)
        assert worker.accuracy_at(50) > worker.accuracy_at(5) > worker.accuracy_at(0)

    def test_negative_learning_rate_degrades(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.5, learning_rate=-0.3)
        assert worker.accuracy_at(50) < 0.5

    def test_accuracy_capped(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.9, learning_rate=5.0, max_accuracy=0.95)
        assert worker.accuracy_at(1e6) <= 0.95

    def test_feedback_advances_exposure(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.5, learning_rate=0.4)
        worker.observe_feedback(10)
        assert worker.training_exposure == 10
        assert worker.current_accuracy == pytest.approx(worker.accuracy_at(10))

    def test_answers_do_not_train_until_feedback(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.5, learning_rate=0.4)
        worker.answer_tasks(20, rng=0)
        assert worker.training_exposure == 0

    def test_answer_statistics_match_accuracy(self):
        worker = StaticWorker(make_profile(), target_accuracy=0.8)
        answers = worker.answer_tasks(5000, rng=1)
        assert answers.mean() == pytest.approx(0.8, abs=0.02)

    def test_reset_training(self):
        worker = LearningWorker(make_profile(), initial_accuracy=0.5, learning_rate=0.4)
        worker.observe_feedback(30)
        worker.reset_training()
        assert worker.training_exposure == 0

    def test_negative_task_count_rejected(self):
        worker = StaticWorker(make_profile(), target_accuracy=0.5)
        with pytest.raises(ValueError):
            worker.answer_tasks(-1)
        with pytest.raises(ValueError):
            worker.observe_feedback(-1)


class TestWorkerPool:
    def test_lookup_and_len(self, static_pool):
        assert len(static_pool) == 5
        assert static_pool["static-0"].worker_id == "static-0"

    def test_unknown_worker_raises_keyerror(self, static_pool):
        with pytest.raises(KeyError):
            static_pool["missing"]

    def test_duplicate_ids_rejected(self):
        worker = StaticWorker(make_profile("dup"), 0.5)
        with pytest.raises(ValueError):
            WorkerPool([worker, StaticWorker(make_profile("dup"), 0.6)])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool([])

    def test_subset_preserves_behaviour_objects(self, static_pool):
        subset = static_pool.subset(["static-1", "static-3"])
        assert subset["static-1"] is static_pool["static-1"]

    def test_profile_matrices_shape(self, static_pool):
        accuracy, counts = static_pool.profile_matrices(["a", "b"])
        assert accuracy.shape == (5, 2)
        assert counts.shape == (5, 2)

    def test_reset_training_propagates(self, learning_pool):
        for worker in learning_pool:
            worker.observe_feedback(5)
        learning_pool.reset_training()
        assert all(worker.training_exposure == 0 for worker in learning_pool)

    def test_accuracies_at(self, learning_pool):
        accuracies = learning_pool.accuracies_at(10.0)
        assert set(accuracies) == set(learning_pool.worker_ids)
        assert all(0.0 <= value <= 1.0 for value in accuracies.values())


class TestPopulationSampling:
    def config(self, **overrides) -> PopulationConfig:
        defaults = dict(
            prior_domains=("p1", "p2", "p3"),
            target_domain="t",
            prior_means=(0.7, 0.85, 0.55),
            prior_stds=(0.2, 0.1, 0.25),
            target_mean=0.5,
            target_std=0.18,
            reference_exposure=10,
        )
        defaults.update(overrides)
        return PopulationConfig(**defaults)

    def test_pool_size(self):
        workers = sample_learning_population(self.config(), n_workers=15, rng=0)
        assert len(workers) == 15

    def test_profiles_cover_prior_domains(self):
        workers = sample_learning_population(self.config(), n_workers=5, rng=0)
        assert set(workers[0].profile.accuracies) == {"p1", "p2", "p3"}

    def test_target_quality_mode_reaches_quality_at_reference(self):
        config = self.config(initial_spread=0.3, gain_scale=1.0)
        workers = sample_learning_population(config, n_workers=30, rng=1)
        qualities = [w.accuracy_at(10) for w in workers]
        # With gain 1.0 the curve passes through the sampled quality at the
        # reference exposure, so the spread there should match the target std.
        assert np.std(qualities) > 0.08

    def test_calibrated_mode_uses_initial_accuracy(self):
        config = self.config(learning_mode="calibrated", learning_rate_mean=0.2, learning_rate_std=0.05)
        workers = sample_learning_population(config, n_workers=20, rng=2)
        initials = np.array([w.initial_accuracy for w in workers])
        assert initials.std() > 0.05  # sampled, not constant

    def test_deterministic_given_seed(self):
        a = sample_learning_population(self.config(), n_workers=8, rng=42)
        b = sample_learning_population(self.config(), n_workers=8, rng=42)
        assert [w.initial_accuracy for w in a] == [w.initial_accuracy for w in b]

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ValueError):
            sample_learning_population(self.config(), n_workers=0)

    def test_missing_reference_exposure_rejected(self):
        with pytest.raises(ValueError):
            self.config(reference_exposure=None)

    @pytest.mark.parametrize("stds", [(-0.2, 0.0, 0.1), (0.2, 0.0, 0.1), (0.2, 0.1, float("nan"))])
    def test_non_positive_prior_stds_rejected(self, stds):
        with pytest.raises(ValueError, match="prior_stds must be positive"):
            replace(get_spec("S-1").population, prior_stds=stds)

    def test_explicit_correlations_used(self):
        correlations = np.eye(4)
        correlations[0, 3] = correlations[3, 0] = 0.9
        config = self.config(correlations=correlations)
        model = config.accuracy_model(rng=0)
        assert model.rho[0, 3] == pytest.approx(0.9, abs=0.05)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rho: rho[:3, :3],  # wrong shape
            lambda rho: np.where(np.eye(4, dtype=bool), 1.0, 0.3) + np.triu(np.full((4, 4), 0.1), k=1),
            lambda rho: rho + np.eye(4),  # diagonal of 2
            lambda rho: np.where(np.eye(4, dtype=bool), 1.0, 1.2),  # |rho| > 1
            lambda rho: np.where(np.eye(4, dtype=bool), 1.0, np.nan),
        ],
        ids=["shape", "asymmetric", "diagonal", "beyond-one", "nan"],
    )
    def test_invalid_correlations_rejected_at_construction(self, edit):
        with pytest.raises(ValueError, match="correlations"):
            self.config(correlations=edit(np.eye(4)))

    @pytest.mark.parametrize("bounds", [(0.5, 3.0), (0.9, 0.1), (-1.5, 0.0), (0.2, float("nan"))])
    def test_invalid_correlation_range_rejected(self, bounds):
        with pytest.raises(ValueError, match="correlation_range"):
            self.config(correlation_range=bounds)

    def test_valid_correlation_inputs_accepted_and_repr_kept(self):
        rho = np.eye(4)
        rho[0, 3] = rho[3, 0] = -1.0
        rho[1, 2] = 0.4
        rho[2, 1] = 0.4 + 1e-15  # rounding-level asymmetry
        config = self.config(correlations=rho, correlation_range=(-1, 1))
        assert config.correlations is rho
        assert "correlation_range=(-1, 1)" in repr(config)
        assert self.config(correlation_range=(0.3, 0.3)).correlation_range == (0.3, 0.3)

    def test_invalid_moments_rejected(self):
        with pytest.raises(ValueError):
            self.config(target_mean=1.5)
        with pytest.raises(ValueError):
            self.config(prior_means=(0.5, 0.5))
