"""Streaming aggregation tests: online majority and incremental Dawid-Skene."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aggregation.dawid_skene import DawidSkeneAggregator
from repro.aggregation.majority import majority_vote
from repro.serving.aggregation import IncrementalDawidSkene, OnlineMajorityVote


def sparse_stream(n_workers=12, n_tasks=60, seed=0, min_votes=3, max_votes=7):
    """A random sparse answer stream plus its dense (workers x tasks) matrix."""
    rng = np.random.default_rng(seed)
    accuracy = rng.uniform(0.55, 0.95, n_workers)
    gold = rng.uniform(size=n_tasks) < 0.5
    matrix = np.full((n_workers, n_tasks), np.nan)
    stream = []
    for task in range(n_tasks):
        voters = rng.choice(n_workers, size=rng.integers(min_votes, max_votes), replace=False)
        for worker in sorted(voters):
            correct = rng.uniform() < accuracy[worker]
            answer = bool(gold[task]) if correct else not bool(gold[task])
            matrix[worker, task] = float(answer)
            stream.append((f"t{task:03d}", f"w{worker:02d}", answer))
    return stream, matrix, gold


#: Stream shapes the property draws: one vote per task, one worker in
#: all, every voter on a task agreeing, and every task split evenly.
DEGENERATE_SHAPES = ("single-vote", "one-worker", "unanimous", "tied")


@st.composite
def degenerate_streams(draw):
    """A degenerate answer stream plus its dense (workers x tasks) matrix.

    Every drawn worker answers at least once, so the matrix has no empty
    rows; tasks arrive in order, each task's voters in worker order.
    """
    shape = draw(st.sampled_from(DEGENERATE_SHAPES))
    n_workers = 1 if shape == "one-worker" else draw(st.integers(2 if shape == "tied" else 1, 6))
    n_tasks = draw(st.integers(1, 12))
    votes = []
    for _ in range(n_tasks):
        if shape == "single-vote":
            voters = [draw(st.integers(0, n_workers - 1))]
        elif shape == "tied":
            size = 2 * draw(st.integers(1, n_workers // 2))
            voters = sorted(draw(st.permutations(range(n_workers)))[:size])
        else:
            voters = sorted(draw(st.sets(st.integers(0, n_workers - 1), min_size=1)))
        if shape == "unanimous":
            answers = [draw(st.booleans())] * len(voters)
        elif shape == "tied":
            answers = draw(st.permutations([True] * (len(voters) // 2) + [False] * (len(voters) // 2)))
        else:
            answers = [draw(st.booleans()) for _ in voters]
        votes.append(list(zip(voters, answers)))
    active = sorted({worker for task in votes for worker, _ in task})
    rows = {worker: row for row, worker in enumerate(active)}
    matrix = np.full((len(active), n_tasks), np.nan)
    stream = []
    for task, task_votes in enumerate(votes):
        for worker, answer in task_votes:
            matrix[rows[worker], task] = float(answer)
            stream.append((f"t{task:03d}", f"w{rows[worker]:02d}", answer))
    return stream, matrix


class TestOnlineMajorityVote:
    def test_matches_batch_majority_on_replayed_stream(self):
        stream, matrix, _ = sparse_stream(seed=1)
        online = OnlineMajorityVote()
        for task_id, worker_id, answer in stream:
            online.add(task_id, worker_id, answer)
        batch = majority_vote(matrix)
        labels = online.labels()
        assert len(labels) == matrix.shape[1]
        for task_id, label in labels.items():
            assert label == bool(batch.labels[int(task_id[1:])])

    def test_tie_break_matches_batch_convention(self):
        online = OnlineMajorityVote()
        online.add("t", "w0", True)
        online.add("t", "w1", False)
        assert online.label("t") is True  # default tie_break=True
        assert OnlineMajorityVote(tie_break=False).label("unseen") is False

    def test_counts(self):
        online = OnlineMajorityVote()
        online.add("a", "w0", True)
        online.add("a", "w1", True)
        online.add("b", "w0", False)
        assert online.n_tasks == 2
        assert online.n_answers == 3


class TestIncrementalDawidSkene:
    def test_converge_matches_batch_posterior_to_1e8(self):
        for seed in (0, 1, 2):
            stream, matrix, _ = sparse_stream(seed=seed)
            incremental = IncrementalDawidSkene()
            for task_id, worker_id, answer in stream:
                incremental.add(task_id, worker_id, answer)
            batch = DawidSkeneAggregator().aggregate(matrix)
            result = incremental.converge()
            order = [int(task_id[1:]) for task_id in incremental.task_ids]
            np.testing.assert_allclose(
                result.posterior_positive, batch.posterior_positive[order], atol=1e-8, rtol=0
            )
            assert np.array_equal(result.labels, batch.labels[order])
            assert result.n_iterations == batch.n_iterations
            assert result.converged == batch.converged

    @given(degenerate_streams())
    def test_converge_matches_batch_on_degenerate_streams(self, case):
        stream, matrix = case
        incremental = IncrementalDawidSkene()
        for task_id, worker_id, answer in stream:
            incremental.add(task_id, worker_id, answer)
        batch = DawidSkeneAggregator().aggregate(matrix)
        result = incremental.converge()
        task_order = [int(task_id[1:]) for task_id in incremental.task_ids]
        worker_order = [int(worker_id[1:]) for worker_id in incremental.worker_ids]
        np.testing.assert_allclose(
            result.posterior_positive, batch.posterior_positive[task_order], atol=1e-8, rtol=0
        )
        np.testing.assert_allclose(
            result.worker_accuracy, batch.worker_accuracy[worker_order], atol=1e-8, rtol=0
        )
        assert np.array_equal(result.labels, batch.labels[task_order])
        assert result.n_iterations == batch.n_iterations
        assert result.converged == batch.converged

    def test_worker_accuracy_matches_batch_for_active_workers(self):
        stream, matrix, _ = sparse_stream(seed=3)
        incremental = IncrementalDawidSkene()
        for task_id, worker_id, answer in stream:
            incremental.add(task_id, worker_id, answer)
        batch = DawidSkeneAggregator().aggregate(matrix)
        result = incremental.converge()
        worker_order = [int(worker_id[1:]) for worker_id in incremental.worker_ids]
        np.testing.assert_allclose(
            result.worker_accuracy, batch.worker_accuracy[worker_order], atol=1e-8, rtol=0
        )

    def test_streamed_labels_beat_chance_and_track_gold(self):
        stream, _, gold = sparse_stream(seed=4, n_tasks=100)
        incremental = IncrementalDawidSkene()
        for task_id, worker_id, answer in stream:
            incremental.add(task_id, worker_id, answer)
        labels = incremental.labels()
        accuracy = np.mean([labels[f"t{j:03d}"] == bool(gold[j]) for j in range(len(gold))])
        assert accuracy > 0.8

    def test_add_returns_running_label(self):
        incremental = IncrementalDawidSkene()
        assert incremental.add("t", "w0", True) is True
        assert incremental.add("t", "w1", False) in (True, False)

    def test_duplicate_answer_rejected(self):
        incremental = IncrementalDawidSkene()
        incremental.add("t", "w0", True)
        with pytest.raises(ValueError):
            incremental.add("t", "w0", False)

    def test_label_of_unseen_task_rejected(self):
        with pytest.raises(KeyError):
            IncrementalDawidSkene().label("nope")

    def test_converge_without_answers_rejected(self):
        with pytest.raises(ValueError):
            IncrementalDawidSkene().converge()

    def test_first_seen_order_preserved(self):
        incremental = IncrementalDawidSkene()
        incremental.add("b", "w0", True)
        incremental.add("a", "w1", False)
        incremental.add("b", "w1", True)
        assert incremental.task_ids == ["b", "a"]
        assert incremental.worker_ids == ["w0", "w1"]
        assert list(incremental.labels()) == ["b", "a"]

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            IncrementalDawidSkene(max_iterations=0)
        with pytest.raises(ValueError):
            IncrementalDawidSkene(tolerance=0.0)
