"""Tests for the behavior registry, the contamination behaviours and pool mixes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.answers import behavior_accuracy_matrix
from repro.platform.budget import compute_budget
from repro.platform.session import AnnotationEnvironment
from repro.platform.tasks import generate_task_bank
from repro.workers.behavior import (
    AdversarialWorker,
    DrifterWorker,
    FatigueWorker,
    LearningWorker,
    SleeperWorker,
    SpammerWorker,
    WorkerBehavior,
)
from repro.workers.pool import WorkerPool
from repro.workers.population import PopulationConfig, sample_learning_population
from repro.workers.registry import (
    GLOBAL_BEHAVIOR_REGISTRY,
    behavior_exists,
    behavior_names,
    describe_behavior,
    make_behavior,
    register_behavior,
    resolve_behavior_name,
)
from tests.conftest import make_profile


def population_config(**overrides) -> PopulationConfig:
    defaults = dict(
        prior_domains=("p1", "p2"),
        target_domain="t",
        prior_means=(0.7, 0.8),
        prior_stds=(0.15, 0.1),
        target_mean=0.6,
        target_std=0.15,
        reference_exposure=10,
    )
    defaults.update(overrides)
    return PopulationConfig(**defaults)


class TestBehaviorRegistry:
    def test_builtins_registered(self):
        names = behavior_names()
        for name in ("static", "learning", "spammer", "adversarial", "fatigue", "sleeper", "drifter"):
            assert name in names

    def test_aliases_resolve(self):
        assert resolve_behavior_name("spam") == "spammer"
        assert resolve_behavior_name("ADV") == "adversarial"
        assert resolve_behavior_name("drift") == "drifter"
        assert resolve_behavior_name("sleep") == "sleeper"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_behavior_name("nope")
        assert "spammer" in str(excinfo.value)

    def test_exists(self):
        assert behavior_exists("spammer")
        assert behavior_exists("SPAM")
        assert not behavior_exists("nope")

    def test_make_behavior_builds_configured_instance(self):
        worker = make_behavior("adversarial", profile=make_profile(), accuracy=0.2)
        assert isinstance(worker, AdversarialWorker)
        assert worker.current_accuracy == pytest.approx(0.2)

    def test_make_behavior_bad_config_mentions_signature(self):
        with pytest.raises(TypeError) as excinfo:
            make_behavior("spammer", profile=make_profile(), bogus=1)
        assert "spammer" in str(excinfo.value)

    def test_register_and_unregister_custom(self):
        @register_behavior("always-right", aliases=("ar",))
        def _build(profile):
            return SpammerWorker(profile, guess_accuracy=1.0)

        try:
            assert resolve_behavior_name("AR") == "always-right"
            assert make_behavior("always-right", profile=make_profile()).current_accuracy == 1.0
        finally:
            GLOBAL_BEHAVIOR_REGISTRY.unregister("always-right")
        assert not behavior_exists("ar")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_behavior("static", lambda profile: None)
        with pytest.raises(ValueError, match="already an alias"):
            register_behavior("spam", lambda profile: None)
        assert resolve_behavior_name("spam") == "spammer"

    def test_custom_behavior_reachable_from_mix(self):
        name = "test-custom-mix-behavior"
        register_behavior(name, lambda profile: SpammerWorker(profile, guess_accuracy=1.0), replace=True)
        try:
            config = population_config(behavior_mix={name: 0.25})
            workers = sample_learning_population(config, 8, rng=0)
            perfect = [w for w in workers if w.current_accuracy == 1.0]
            assert len(perfect) == 2
        finally:
            GLOBAL_BEHAVIOR_REGISTRY.unregister(name)

    def test_describe_mentions_signature(self):
        assert "guess_accuracy" in describe_behavior("spammer")


class TestContaminationBehaviors:
    def test_spammer_flat_at_guess(self):
        worker = SpammerWorker(make_profile())
        assert worker.accuracy_at(0) == worker.accuracy_at(1000) == 0.5

    def test_adversarial_below_chance(self):
        worker = AdversarialWorker(make_profile(), accuracy=0.3)
        assert worker.accuracy_at(0) == worker.accuracy_at(500) == 0.3
        with pytest.raises(ValueError):
            AdversarialWorker(make_profile(), accuracy=0.6)

    def test_fatigue_decays_to_floor(self):
        worker = FatigueWorker(make_profile(), initial_accuracy=0.85, fatigue_rate=0.5, floor_accuracy=0.3)
        assert worker.accuracy_at(0) == pytest.approx(0.85)
        assert worker.accuracy_at(10) < worker.accuracy_at(1)
        assert worker.accuracy_at(1e6) == pytest.approx(0.3)

    def test_sleeper_alternates_phases(self):
        worker = SleeperWorker(
            make_profile(), awake_accuracy=0.9, asleep_accuracy=0.5, period=10, sleep_fraction=0.3, phase=0.0
        )
        assert worker.accuracy_at(0) == 0.5  # asleep streak first
        assert worker.accuracy_at(2.9) == 0.5
        assert worker.accuracy_at(3) == 0.9
        assert worker.accuracy_at(9) == 0.9
        assert worker.accuracy_at(10) == 0.5  # next cycle

    def test_drifter_steps_at_drift_exposure(self):
        worker = DrifterWorker(make_profile(), initial_accuracy=0.85, drifted_accuracy=0.4, drift_exposure=30)
        assert worker.accuracy_at(29.9) == 0.85
        assert worker.accuracy_at(30) == 0.4
        assert worker.accuracy_at(100) == 0.4

    def test_scalar_and_batch_curves_agree(self):
        behaviors = [
            SpammerWorker(make_profile("w0")),
            AdversarialWorker(make_profile("w1"), accuracy=0.25),
            FatigueWorker(make_profile("w2"), initial_accuracy=0.8, fatigue_rate=0.4),
            SleeperWorker(make_profile("w3"), awake_accuracy=0.9, period=7, sleep_fraction=0.4, phase=0.5),
            DrifterWorker(make_profile("w4"), initial_accuracy=0.7, drifted_accuracy=0.3, drift_exposure=12),
            LearningWorker(make_profile("w5"), initial_accuracy=0.55, learning_rate=0.3),
        ]
        points = np.linspace(0.0, 50.0, 11)
        matrix = behavior_accuracy_matrix(behaviors, np.tile(points, (len(behaviors), 1)))
        for row, worker in enumerate(behaviors):
            scalars = [worker.accuracy_at(point) for point in points]
            np.testing.assert_array_equal(matrix[row], scalars)

    def test_fallback_for_behaviors_without_batch_curve(self):
        class OddBehavior(WorkerBehavior):
            def curve_params(self):
                return {}

            def accuracy_at(self, exposure: float) -> float:
                return 0.25 if exposure < 5 else 0.75

        behaviors = [OddBehavior(make_profile("w0")), SpammerWorker(make_profile("w1"))]
        matrix = behavior_accuracy_matrix(behaviors, np.array([[0.0, 10.0], [0.0, 10.0]]))
        np.testing.assert_array_equal(matrix[0], [0.25, 0.75])
        np.testing.assert_array_equal(matrix[1], [0.5, 0.5])


class TestStatisticalRegression:
    """Per-round answer means must match latent accuracies for every behaviour."""

    N_TASKS = 2000

    def one_worker_pool(self, name: str):
        if name == "static":
            worker = make_behavior(name, profile=make_profile("w-0"), target_accuracy=0.7)
        elif name == "learning":
            worker = make_behavior(name, profile=make_profile("w-0"), initial_accuracy=0.55, learning_rate=0.4)
        else:
            worker = make_behavior(name, profile=make_profile("w-0"))
        return WorkerPool([worker])

    @pytest.mark.parametrize("name", sorted(set(behavior_names())))
    @pytest.mark.parametrize("round_index", [1, 2])
    def test_round_mean_within_binomial_interval(self, name, round_index):
        pool = self.one_worker_pool(name)
        schedule = compute_budget(pool_size=1, k=1, total_budget=3 * self.N_TASKS)
        bank = generate_task_bank("t", n_learning=3 * self.N_TASKS, n_working=10, rng=0)
        environment = AnnotationEnvironment(
            pool, bank, schedule, ["a"], rng=99, batch_size=self.N_TASKS
        )
        worker = pool.workers[0]
        record = None
        for index in range(1, round_index + 1):
            expected = worker.current_accuracy  # accuracy before the round's feedback
            record = environment.run_learning_round(pool.worker_ids, self.N_TASKS, round_index=index)
        observed = float(np.mean(record.correctness[worker.worker_id]))
        sigma = np.sqrt(max(expected * (1 - expected), 1e-12) / self.N_TASKS)
        assert abs(observed - expected) < max(4.5 * sigma, 1e-9), (
            f"{name} round {round_index}: observed {observed:.4f} vs latent {expected:.4f}"
        )


class TestPopulationMixes:
    def test_counts_follow_fractions(self):
        config = population_config(behavior_mix={"spammer": 0.1, "drifter": 0.2})
        workers = sample_learning_population(config, 40, rng=3)
        assert sum(isinstance(w, SpammerWorker) for w in workers) == 4
        assert sum(isinstance(w, DrifterWorker) for w in workers) == 8
        assert sum(isinstance(w, LearningWorker) for w in workers) == 28

    def test_mix_deterministic_given_seed(self):
        config = population_config(behavior_mix={"spammer": 0.2, "sleeper": 0.1})
        first = sample_learning_population(config, 20, rng=11)
        second = sample_learning_population(config, 20, rng=11)
        assert [type(w).__name__ for w in first] == [type(w).__name__ for w in second]
        assert [w.current_accuracy for w in first] == [w.current_accuracy for w in second]

    def test_clean_workers_paired_with_uncontaminated_pool(self):
        contaminated = sample_learning_population(
            population_config(behavior_mix={"adversarial": 0.25}), 16, rng=5
        )
        clean = sample_learning_population(population_config(), 16, rng=5)
        for mixed, base in zip(contaminated, clean):
            if isinstance(mixed, LearningWorker):
                assert mixed.initial_accuracy == base.initial_accuracy
                assert mixed.learning_rate == base.learning_rate

    def test_contaminated_workers_keep_profiles(self):
        workers = sample_learning_population(
            population_config(behavior_mix={"spammer": 0.5}), 10, rng=1
        )
        for worker in workers:
            assert set(worker.profile.accuracies) == {"p1", "p2"}

    def test_behavior_params_override(self):
        config = population_config(
            behavior_mix={"drifter": 0.5},
            behavior_params={"drifter": {"drift_exposure": 123.0}},
        )
        workers = sample_learning_population(config, 8, rng=2)
        drifters = [w for w in workers if isinstance(w, DrifterWorker)]
        assert drifters and all(w.drift_exposure == 123.0 for w in drifters)

    def test_behavior_params_alias_keys_canonicalised(self):
        config = population_config(
            behavior_mix={"drift": 0.5},
            behavior_params={"drift": {"drift_exposure": 321.0}},
        )
        workers = sample_learning_population(config, 8, rng=2)
        drifters = [w for w in workers if isinstance(w, DrifterWorker)]
        assert drifters and all(w.drift_exposure == 321.0 for w in drifters)

    def test_mix_names_canonicalised_and_merged(self):
        config = population_config(behavior_mix={"spam": 0.1, "spammer": 0.1})
        assert config.behavior_mix == {"spammer": 0.2}

    def test_invalid_mix_rejected(self):
        with pytest.raises(KeyError):
            population_config(behavior_mix={"nope": 0.1})
        with pytest.raises(ValueError):
            population_config(behavior_mix={"spammer": 0.8, "adversarial": 0.4})
        with pytest.raises(ValueError):
            population_config(behavior_mix={"spammer": -0.1})


class TestStatefulBehaviorIsolation:
    """Training state must not leak across environments, subsets or repetitions."""

    def contaminated_pool(self) -> WorkerPool:
        config = population_config(behavior_mix={"fatigue": 0.25, "drifter": 0.25})
        return WorkerPool(sample_learning_population(config, 12, rng=7))

    def environment(self, pool: WorkerPool) -> AnnotationEnvironment:
        schedule = compute_budget(pool_size=len(pool), k=3, total_budget=400)
        bank = generate_task_bank("t", n_learning=200, n_working=20, rng=0)
        return AnnotationEnvironment(pool, bank, schedule, ["p1", "p2"], rng=42, batch_size=10)

    def test_repeated_environments_replay_identically(self):
        pool = self.contaminated_pool()
        records = []
        for _ in range(2):
            environment = self.environment(pool)
            record = environment.run_learning_round(environment.worker_ids, 10)
            records.append(record)
        for worker_id in pool.worker_ids:
            np.testing.assert_array_equal(records[0].correctness[worker_id], records[1].correctness[worker_id])

    def test_subset_shares_behavior_objects_and_resets_only_members(self):
        pool = self.contaminated_pool()
        for worker in pool:
            worker.observe_feedback(30)
        subset_ids = pool.worker_ids[:4]
        self.environment(pool.subset(subset_ids))  # construction resets the subset
        for worker_id in subset_ids:
            assert pool[worker_id].training_exposure == 0
        for worker_id in pool.worker_ids[4:]:
            assert pool[worker_id].training_exposure == 30

    def test_exposure_advances_and_resets_for_stateful_behaviors(self):
        pool = self.contaminated_pool()
        environment = self.environment(pool)
        environment.run_learning_round(pool.worker_ids, 20)
        assert all(w.training_exposure == 20 for w in pool)
        drifted = [w for w in pool if isinstance(w, (FatigueWorker, DrifterWorker))]
        assert drifted, "fixture must contain stateful behaviours"
        pool.reset_training()
        assert all(w.training_exposure == 0 for w in pool)

    def test_campaign_repetitions_share_no_state(self):
        # Two full campaigns on a contaminated dataset must be bit-identical:
        # any state leak through fatigue/drifter exposure would diverge them.
        from repro.campaign import Campaign

        first = Campaign(dataset="S-1:fatigue20+drift20", selector="us", k=5, seed=4).run()
        second = Campaign(dataset="S-1:fatigue20+drift20", selector="us", k=5, seed=4).run()
        assert first.to_dict() == second.to_dict()
