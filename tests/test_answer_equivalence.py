"""Equivalence of the vectorized answer simulation and the per-worker oracle.

The platform (pool-level accuracy matrix + one Bernoulli draw per round)
must produce **bit-identical** correctness records to the per-worker loop
in ``tests/oracles/answers.py`` — both consume the same counter-based
per-(worker, round) streams and the same curve formulas — and, end to end,
identical :class:`~repro.campaign.Campaign` reports on clean and
contaminated pools.  Mirrors ``tests/test_cpe_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.answers import evaluation_accuracies, use_round_answers
from repro.campaign import Campaign
from repro.platform.answers import simulate_round_answers, split_batches
from repro.platform.budget import compute_budget
from repro.platform.session import AnnotationEnvironment
from repro.platform.tasks import generate_task_bank
from repro.stats.rng import counter_uniforms, stream_seeds, token_hashes
from repro.workers.pool import WorkerPool
from repro.workers.population import PopulationConfig, sample_learning_population

CONTAMINATED_MIX = {
    "spammer": 0.1,
    "adversarial": 0.1,
    "fatigue": 0.1,
    "sleeper": 0.1,
    "drifter": 0.1,
}


def contaminated_pool(n_workers: int = 24, seed: int = 0) -> WorkerPool:
    config = PopulationConfig(
        prior_domains=("p1", "p2"),
        target_domain="t",
        prior_means=(0.7, 0.8),
        prior_stds=(0.15, 0.1),
        target_mean=0.6,
        target_std=0.15,
        reference_exposure=10,
        behavior_mix=CONTAMINATED_MIX,
    )
    return WorkerPool(sample_learning_population(config, n_workers, rng=seed))


def fresh_environment(pool: WorkerPool, rng: int = 5, batch_size: int = 7) -> AnnotationEnvironment:
    schedule = compute_budget(pool_size=len(pool), k=4, total_budget=len(pool) * 200)
    bank = generate_task_bank("t", n_learning=500, n_working=40, rng=1)
    return AnnotationEnvironment(pool, bank, schedule, ["p1", "p2"], rng=rng, batch_size=batch_size)


def learning_rounds(pool: WorkerPool, rng: int, batch_size: int):
    environment = fresh_environment(pool, rng=rng, batch_size=batch_size)
    return [
        environment.run_learning_round(environment.worker_ids, tasks, round_index=index)
        for index, tasks in enumerate([13, 0, 25], start=1)
    ]


class TestStreamPrimitives:
    def test_counter_uniforms_batching_invariant(self):
        seeds = stream_seeds(1234, token_hashes(["w-0", "w-1"]), 1, 3)
        block = counter_uniforms(seeds, 20)
        chunks = np.concatenate(
            [counter_uniforms(seeds, 7, offset=0), counter_uniforms(seeds, 13, offset=7)], axis=1
        )
        np.testing.assert_array_equal(block, chunks)

    def test_streams_independent_of_companions(self):
        hashes = token_hashes(["w-0", "w-1", "w-2"])
        full = stream_seeds(9, hashes, 1, 2)
        alone = stream_seeds(9, hashes[1:2], 1, 2)
        assert full[1] == alone[0]

    def test_uniforms_in_unit_interval_and_distributed(self):
        seeds = stream_seeds(0, token_hashes(["w"]), 1, 1)
        draws = counter_uniforms(seeds, 20000)[0]
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.01

    def test_invalid_arguments_rejected(self):
        seeds = stream_seeds(0, token_hashes(["w"]), 1, 1)
        with pytest.raises(ValueError):
            counter_uniforms(seeds, -1)
        with pytest.raises(ValueError):
            counter_uniforms(seeds, 1, offset=-1)


class TestRoundEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("batch_size", [1, 7, 50])
    def test_engines_bit_identical_on_contaminated_pools(self, seed, batch_size, monkeypatch):
        pool = contaminated_pool(seed=seed)
        vectorized = learning_rounds(pool, rng=100 + seed, batch_size=batch_size)
        with monkeypatch.context() as patched:
            use_round_answers(patched)
            oracle = learning_rounds(pool, rng=100 + seed, batch_size=batch_size)
        for fast, reference in zip(vectorized, oracle):
            assert fast.tasks_per_worker == reference.tasks_per_worker
            for worker_id in pool.worker_ids:
                np.testing.assert_array_equal(
                    fast.correctness[worker_id], reference.correctness[worker_id]
                )

    def test_simulate_round_answers_validates_engine(self):
        # The engine switch is gone: the per-worker loop is a test oracle.
        pool = contaminated_pool()
        seeds = stream_seeds(0, token_hashes(pool.worker_ids), 1, 1)
        with pytest.raises(TypeError):
            simulate_round_answers(pool.workers, seeds, 5, 5, engine="reference")
        with pytest.raises(ValueError):
            simulate_round_answers(pool.workers, seeds[:-1], 5, 5)

    def test_split_batches(self):
        assert split_batches(20, 7) == [7, 7, 6]
        assert split_batches(0, 5) == []
        assert split_batches(5, 5) == [5]
        with pytest.raises(ValueError):
            split_batches(-1, 5)
        with pytest.raises(ValueError):
            split_batches(5, 0)

    def test_round_independent_of_worker_subset(self):
        # A worker's answers in a round depend only on (seed, worker, round),
        # not on which other workers share the assignment.
        pool = contaminated_pool()
        full = fresh_environment(pool)
        record_full = full.run_learning_round(pool.worker_ids, 10)
        some = fresh_environment(pool)
        record_some = some.run_learning_round(pool.worker_ids[:5], 10)
        for worker_id in pool.worker_ids[:5]:
            np.testing.assert_array_equal(
                record_full.correctness[worker_id], record_some.correctness[worker_id]
            )

    def test_repeated_runs_byte_identical(self):
        pool = contaminated_pool()
        first = fresh_environment(pool).run_learning_round(pool.worker_ids, 15)
        second = fresh_environment(pool).run_learning_round(pool.worker_ids, 15)
        for worker_id in pool.worker_ids:
            np.testing.assert_array_equal(first.correctness[worker_id], second.correctness[worker_id])

    def test_unknown_worker_rejected(self):
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        with pytest.raises(KeyError):
            environment.run_learning_round(["nope"], 5)

    def test_duplicate_round_index_rejected_before_training(self):
        # A repeated round index would replay the previous round's uniform
        # streams; it must be rejected before any exposure advances.
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        environment.run_learning_round(pool.worker_ids, 5, round_index=2)
        with pytest.raises(ValueError):
            environment.run_learning_round(pool.worker_ids, 5, round_index=2)
        with pytest.raises(ValueError):
            environment.run_learning_round(pool.worker_ids, 5, round_index=1)
        assert all(worker.training_exposure == 5 for worker in pool)


class TestEvaluationEquivalence:
    def test_empirical_evaluation_identical_across_engines(self):
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        selection = pool.worker_ids[:6]
        outcome = environment.evaluate_selection(selection, empirical=True, n_working_tasks=200)
        assert outcome.per_worker_accuracy == evaluation_accuracies(environment, selection, 200)

    def test_empirical_evaluation_independent_of_selection_order(self):
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        forward = environment.evaluate_selection(pool.worker_ids[:4], empirical=True, n_working_tasks=50)
        backward = environment.evaluate_selection(
            list(reversed(pool.worker_ids[:4])), empirical=True, n_working_tasks=50
        )
        assert forward.per_worker_accuracy == backward.per_worker_accuracy

    def test_zero_working_tasks_degrades_to_latent(self):
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        selection = pool.worker_ids[:3]
        degenerate = environment.evaluate_selection(selection, empirical=True, n_working_tasks=0)
        latent = environment.evaluate_selection(selection)
        assert np.isfinite(degenerate.mean_accuracy)
        assert degenerate.per_worker_accuracy == latent.per_worker_accuracy

    def test_negative_working_tasks_rejected(self):
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        with pytest.raises(ValueError):
            environment.evaluate_selection(pool.worker_ids[:2], n_working_tasks=-1)

    def test_latent_evaluation_matches_final_accuracy(self):
        pool = contaminated_pool()
        environment = fresh_environment(pool)
        outcome = environment.evaluate_selection(pool.worker_ids[:5])
        for worker_id, value in outcome.per_worker_accuracy.items():
            assert value == environment.final_accuracy(worker_id)


@pytest.mark.parametrize("dataset", ["S-1", "S-1:spam10", "RW-1:adversarial20"])
def test_campaign_reports_identical_across_engines(dataset, monkeypatch):
    """Full Campaign.run(): the vectorization changes nothing, bit for bit.

    No setting selects the oracle, so the second run patches it in where
    the environment simulates a round.
    """
    vectorized = Campaign(dataset=dataset, selector="ours", seed=11, cpe_epochs=4).run()
    use_round_answers(monkeypatch)
    oracle = Campaign(dataset=dataset, selector="ours", seed=11, cpe_epochs=4).run()
    assert vectorized.to_dict() == oracle.to_dict()


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_legacy_answer_engine_checkpoint_restores(engine):
    """Checkpoints that still carry the retired ``answer_engine`` key resume."""
    campaign = Campaign(dataset="S-1", selector="me", seed=3)
    campaign.step()
    state = campaign.state_dict()
    assert "answer_engine" not in state
    restored = Campaign.from_state_dict({**state, "answer_engine": engine})
    assert restored.rounds_completed == 1
    restored.run()
    fresh = Campaign(dataset="S-1", selector="me", seed=3)
    fresh.run()
    assert restored.report().to_dict() == fresh.report().to_dict()
