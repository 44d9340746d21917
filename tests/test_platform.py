"""Tests for the crowdsourcing-platform substrate (tasks, budget, assignment, history, session)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.assignment import build_round_assignment
from repro.platform.budget import (
    compute_budget,
    default_total_budget,
    number_of_batches,
    number_of_rounds,
    per_round_budget,
)
from repro.platform.history import AnswerHistory, RoundRecord
from repro.platform.session import AnnotationEnvironment, BudgetExceededError
from repro.platform.tasks import TaskKind, generate_task_bank
from repro.workers.behavior import StaticWorker
from repro.workers.pool import WorkerPool
from tests.conftest import make_profile


class TestTasks:
    def test_bank_sizes(self):
        bank = generate_task_bank("petunia", n_learning=12, n_working=7, rng=0)
        assert bank.n_learning == 12
        assert bank.n_working == 7

    def test_task_kinds(self):
        bank = generate_task_bank("petunia", 3, 2, rng=0)
        assert all(task.kind is TaskKind.LEARNING for task in bank.learning_tasks)
        assert all(task.kind is TaskKind.WORKING for task in bank.working_tasks)

    def test_task_ids_unique(self):
        bank = generate_task_bank("d", 20, 20, rng=0)
        ids = [t.task_id for t in bank.learning_tasks + bank.working_tasks]
        assert len(set(ids)) == len(ids)

    def test_positive_rate_respected(self):
        bank = generate_task_bank("d", 2000, 0, rng=1, positive_rate=0.8)
        rate = np.mean([t.gold_label for t in bank.learning_tasks])
        assert rate == pytest.approx(0.8, abs=0.03)

    def test_bank_matches_per_task_draws(self):
        # The labels are drawn in one call; the bank and the generator's
        # state after it must equal one scalar draw per task.
        generator = np.random.default_rng(17)
        bank = generate_task_bank("d", 23, 11, rng=generator, positive_rate=0.4)
        reference = np.random.default_rng(17)
        labels = [bool(reference.uniform() < 0.4) for _ in range(23 + 11)]
        tasks = bank.learning_tasks + bank.working_tasks
        assert [task.gold_label for task in tasks] == labels
        assert all(type(task.gold_label) is bool for task in tasks)
        assert generator.uniform() == reference.uniform()

    def test_take_learning_tasks_cycles(self):
        bank = generate_task_bank("d", 5, 0, rng=0)
        tasks = bank.take_learning_tasks(start_index=3, count=4)
        assert [t.task_id for t in tasks] == [bank.learning_tasks[i % 5].task_id for i in range(3, 7)]

    def test_take_from_empty_bank_rejected(self):
        bank = generate_task_bank("d", 0, 3, rng=0)
        with pytest.raises(ValueError):
            bank.take_learning_tasks(0, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_task_bank("d", -1, 0)


class TestBudget:
    def test_number_of_rounds_matches_paper(self):
        # Table II: RW-1 (27, 7) -> 2 rounds; S-1 (40, 5) -> 3; S-3 (80, 5) -> 4; S-4 (160, 5) -> 5.
        assert number_of_rounds(27, 7) == 2
        assert number_of_rounds(40, 5) == 3
        assert number_of_rounds(80, 5) == 4
        assert number_of_rounds(160, 5) == 5

    def test_k_at_least_pool_size_gives_one_round(self):
        assert number_of_rounds(10, 10) == 1
        assert number_of_rounds(10, 20) == 1

    def test_per_round_budget(self):
        assert per_round_budget(540, 2) == 270

    def test_default_total_budget_matches_table2(self):
        assert default_total_budget(27, 7, 10) == 540
        assert default_total_budget(40, 5, 20) == 2400
        assert default_total_budget(160, 5, 20) == 16000

    def test_number_of_batches(self):
        assert number_of_batches(27, 7) == 3
        assert number_of_batches(40, 5) == 7
        assert number_of_batches(160, 5) == 31

    def test_schedule_remaining_workers_halves(self):
        schedule = compute_budget(40, 5, 2400)
        assert schedule.remaining_workers(1) == 40
        assert schedule.remaining_workers(2) == 20
        assert schedule.remaining_workers(3) == 10

    def test_tasks_per_worker_doubles(self):
        schedule = compute_budget(40, 5, 2400)
        assert schedule.tasks_per_worker(1) == 20
        assert schedule.tasks_per_worker(2) == 40
        assert schedule.tasks_per_worker(3) == 80

    def test_spent_budget_never_exceeds_total(self):
        for pool, k, q in [(27, 7, 10), (35, 9, 10), (50, 5, 20), (13, 4, 7)]:
            schedule = compute_budget(pool, k, default_total_budget(pool, k, q))
            assert schedule.spent_budget() <= schedule.total_budget

    def test_full_training_exposure(self):
        schedule = compute_budget(27, 7, 540)
        assert schedule.full_training_exposure == schedule.tasks_per_worker(1) + schedule.tasks_per_worker(2)

    def test_round_plan_structure(self):
        schedule = compute_budget(40, 5, 2400)
        plan = schedule.round_plan()
        assert len(plan) == schedule.n_rounds
        assert plan[0]["remaining_workers"] == 40

    def test_invalid_round_index_rejected(self):
        schedule = compute_budget(40, 5, 2400)
        with pytest.raises(ValueError):
            schedule.remaining_workers(0)
        with pytest.raises(ValueError):
            schedule.remaining_workers(99)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            number_of_rounds(0, 5)
        with pytest.raises(ValueError):
            per_round_budget(100, 0)
        with pytest.raises(ValueError):
            default_total_budget(10, 2, 0)


class TestAssignmentEdgeCases:
    """Task-bank exhaustion, zero-length rounds and start-index continuity."""

    def bank(self, n_learning=5):
        return generate_task_bank("d", n_learning, 0, rng=0)

    def test_bank_exhaustion_mid_round_cycles_sequentially(self):
        # Round asks for 4 tasks starting at index 3 of a 5-task bank: the
        # batch must wrap to the bank's start, not truncate or raise.
        assignment = build_round_assignment(self.bank(), ["w0", "w1"], round_index=1, start_index=3, tasks_per_worker=4)
        indices = [int(task.task_id.rsplit("-", 1)[1]) for task in assignment.tasks]
        assert indices == [3, 4, 0, 1]
        assert assignment.next_start_index == 7  # r_{c+1} keeps counting past the bank size

    def test_zero_length_round_consumes_nothing(self):
        assignment = build_round_assignment(self.bank(), ["w0"], round_index=1, start_index=2, tasks_per_worker=0)
        assert assignment.tasks == ()
        assert assignment.tasks_per_worker == 0
        assert assignment.total_assignments == 0
        assert assignment.next_start_index == 2  # the cursor must not move

    def test_next_start_index_continuity_across_rounds(self):
        bank = self.bank(n_learning=6)
        start = 0
        seen = []
        for round_index, batch in enumerate([4, 0, 5], start=1):
            assignment = build_round_assignment(bank, ["w0"], round_index, start, batch)
            seen.extend(int(task.task_id.rsplit("-", 1)[1]) for task in assignment.tasks)
            start = assignment.next_start_index
        # 4 tasks, an empty round, then 5 more: indices continue 0..3, 4,5,0,1,2.
        assert seen == [0, 1, 2, 3, 4, 5, 0, 1, 2]
        assert start == 9


class TestEnvironmentEdgeCases:
    """The same edge cases driven through AnnotationEnvironment."""

    def environment(self, n_learning=8, total_budget=100):
        pool = WorkerPool([StaticWorker(make_profile(f"s-{i}", {"a": 0.8}, {"a": 5}), 0.8) for i in range(2)])
        schedule = compute_budget(pool_size=2, k=1, total_budget=total_budget)
        bank = generate_task_bank("t", n_learning=n_learning, n_working=4, rng=1)
        return AnnotationEnvironment(pool, bank, schedule, ["a"], rng=2, batch_size=4)

    def test_zero_task_round_is_recorded_but_free(self):
        environment = self.environment()
        record = environment.run_learning_round(environment.worker_ids, 0)
        assert record.tasks_per_worker == 0
        assert all(answers.size == 0 for answers in record.correctness.values())
        assert environment.spent_budget == 0
        assert len(environment.history) == 1
        # The task cursor did not move: the next round starts at the bank's head.
        follow_up = environment.run_learning_round(environment.worker_ids, 2)
        assert follow_up.tasks_per_worker == 2
        assert environment.spent_budget == 4

    def test_exhaustion_mid_round_flags_cycling_in_summary(self):
        environment = self.environment(n_learning=8, total_budget=100)
        assert environment.summary()["learning_tasks_cycled"] is False
        environment.run_learning_round(environment.worker_ids, 6)
        environment.run_learning_round(environment.worker_ids, 6)  # crosses the 8-task bank
        assert environment.summary()["learning_tasks_cycled"] is True

    def test_round_indices_stay_continuous_after_zero_round(self):
        environment = self.environment()
        first = environment.run_learning_round(environment.worker_ids, 0)
        second = environment.run_learning_round(environment.worker_ids, 3)
        assert (first.round_index, second.round_index) == (1, 2)
        assert environment.history.cumulative_exposure("s-0") == 3


class TestAssignment:
    def test_assignment_fields(self):
        bank = generate_task_bank("d", 30, 0, rng=0)
        assignment = build_round_assignment(bank, ["w1", "w2"], round_index=1, start_index=0, tasks_per_worker=5)
        assert assignment.tasks_per_worker == 5
        assert assignment.total_assignments == 10
        assert assignment.next_start_index == 5
        assert len(assignment.gold_labels()) == 5

    def test_sequential_rounds_advance_start_index(self):
        bank = generate_task_bank("d", 30, 0, rng=0)
        first = build_round_assignment(bank, ["w1"], 1, 0, 4)
        second = build_round_assignment(bank, ["w1"], 2, first.next_start_index, 4)
        assert {t.task_id for t in first.tasks}.isdisjoint({t.task_id for t in second.tasks})

    def test_empty_worker_set_rejected(self):
        bank = generate_task_bank("d", 10, 0, rng=0)
        with pytest.raises(ValueError):
            build_round_assignment(bank, [], 1, 0, 2)

    def test_invalid_round_index_rejected(self):
        bank = generate_task_bank("d", 10, 0, rng=0)
        with pytest.raises(ValueError):
            build_round_assignment(bank, ["w"], 0, 0, 2)


class TestHistory:
    def record(self, round_index=1, correct=(3, 1)):
        return RoundRecord(
            round_index=round_index,
            correctness={
                "w1": np.array([True] * correct[0] + [False] * (4 - correct[0])),
                "w2": np.array([True] * correct[1] + [False] * (4 - correct[1])),
            },
            tasks_per_worker=4,
        )

    def test_counts(self):
        record = self.record()
        assert record.correct_counts() == {"w1": 3, "w2": 1}
        assert record.wrong_counts() == {"w1": 1, "w2": 3}
        assert record.accuracies()["w1"] == pytest.approx(0.75)

    def test_history_append_order_enforced(self):
        history = AnswerHistory()
        history.append(self.record(1))
        with pytest.raises(ValueError):
            history.append(self.record(1))

    def test_cumulative_exposure(self):
        history = AnswerHistory()
        history.append(self.record(1))
        history.append(self.record(2))
        assert history.cumulative_exposure("w1") == 8

    def test_accuracy_trajectory(self):
        history = AnswerHistory()
        history.append(self.record(1, correct=(2, 2)))
        history.append(self.record(2, correct=(4, 0)))
        assert history.accuracy_trajectory("w1") == [0.5, 1.0]

    def test_total_assignments(self):
        history = AnswerHistory()
        history.append(self.record(1))
        assert history.total_assignments() == 8

    def test_latest(self):
        history = AnswerHistory()
        assert history.latest is None
        history.append(self.record(1))
        assert history.latest.round_index == 1


class TestEnvironment:
    def test_historical_profiles_shape(self, static_environment):
        accuracy, counts = static_environment.historical_profiles()
        assert accuracy.shape == (5, 2)
        assert counts.shape == (5, 2)

    def test_run_learning_round_records_history(self, static_environment):
        record = static_environment.run_learning_round(static_environment.worker_ids, 4)
        assert record.tasks_per_worker == 4
        assert static_environment.spent_budget == 20
        assert len(static_environment.history) == 1

    def test_budget_enforced(self, static_environment):
        with pytest.raises(BudgetExceededError):
            static_environment.run_learning_round(static_environment.worker_ids, 1000)

    def test_better_workers_answer_better(self, static_environment):
        record = static_environment.run_learning_round(static_environment.worker_ids, 18)
        accuracies = record.accuracies()
        assert accuracies["static-0"] > accuracies["static-4"]

    def test_evaluation_of_selection(self, static_environment):
        outcome = static_environment.evaluate_selection(["static-0", "static-1"])
        assert outcome.mean_accuracy == pytest.approx((0.9 + 0.8) / 2)

    def test_evaluate_unknown_worker_rejected(self, static_environment):
        with pytest.raises(KeyError):
            static_environment.evaluate_selection(["nope"])

    def test_evaluate_empty_selection_rejected(self, static_environment):
        with pytest.raises(ValueError):
            static_environment.evaluate_selection([])

    def test_ground_truth_top_k(self, static_environment):
        assert static_environment.ground_truth_top_k(2) == ["static-0", "static-1"]

    def test_empirical_evaluation_close_to_latent(self, static_environment):
        outcome = static_environment.evaluate_selection(["static-0"], empirical=True, n_working_tasks=4000, rng=5)
        assert outcome.mean_accuracy == pytest.approx(0.9, abs=0.03)

    def test_learning_workers_train_during_round(self, learning_pool):
        schedule = compute_budget(pool_size=4, k=2, total_budget=80)
        bank = generate_task_bank("t", 60, 10, rng=0)
        environment = AnnotationEnvironment(learning_pool, bank, schedule, ["a", "b"], rng=3, batch_size=5)
        environment.run_learning_round(environment.worker_ids, 20)
        fast_learner = learning_pool["lw-1"]
        assert fast_learner.training_exposure == 20
        assert fast_learner.current_accuracy > fast_learner.initial_accuracy

    def test_final_accuracy_uses_full_schedule(self, learning_pool):
        schedule = compute_budget(pool_size=4, k=2, total_budget=80)
        bank = generate_task_bank("t", 60, 10, rng=0)
        environment = AnnotationEnvironment(learning_pool, bank, schedule, ["a", "b"], rng=3)
        expected = learning_pool["lw-1"].accuracy_at(float(schedule.full_training_exposure))
        assert environment.final_accuracy("lw-1") == pytest.approx(expected)

    def test_summary_fields(self, static_environment):
        summary = static_environment.summary()
        assert summary["pool_size"] == 5
        assert summary["spent_budget"] == 0
        assert "learning_tasks_cycled" in summary

    def test_environment_resets_training_on_construction(self, learning_pool):
        learning_pool["lw-0"].observe_feedback(10)
        schedule = compute_budget(4, 2, 40)
        bank = generate_task_bank("t", 40, 10, rng=0)
        AnnotationEnvironment(learning_pool, bank, schedule, ["a", "b"], rng=0)
        assert learning_pool["lw-0"].training_exposure == 0
