"""The annotation environment: the simulator selection algorithms run against.

:class:`AnnotationEnvironment` wires a worker pool, a target-domain task
bank and a budget schedule into the answer-and-learn protocol of Figure 2:

1. the algorithm asks for a batch of learning tasks to be assigned to a set
   of (remaining) workers;
2. the environment simulates the workers' answers at their *current* latent
   accuracy, scores them against the gold labels, reveals the answers to the
   workers (which advances their training exposure), and returns only the
   observable correctness record;
3. at the end the algorithm hands back the selected worker ids and the
   environment evaluates their accuracy on the working tasks.

Answer simulation is delegated to :mod:`repro.platform.answers`, which
simulates the whole round with one batched accuracy matrix and one
Bernoulli draw.  Every stream is derived from the environment seed, the
worker id and the round index, never from a shared sequential generator, so
simulated answers are independent of iteration order and process count.
The per-worker loop this replaced is kept as a test oracle
(``tests/oracles/answers.py``), which consumes the same streams and must
produce bit-identical records.

The environment enforces the total budget ``B``: any assignment that would
exceed it raises :class:`BudgetExceededError`, so a mis-configured selector
cannot silently obtain more information than the paper's problem definition
allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.platform.answers import behavior_accuracy_matrix, simulate_round_answers
from repro.platform.assignment import build_round_assignment
from repro.platform.budget import BudgetSchedule
from repro.platform.history import AnswerHistory, RoundRecord
from repro.platform.tasks import TaskBank
from repro.stats.rng import SeedLike, as_generator, counter_uniforms, stream_seeds, token_hashes
from repro.workers.pool import WorkerPool

#: Stream discriminators keeping learning-round and evaluation draws apart.
_LEARNING_STREAM = 1
_EVALUATION_STREAM = 2


class BudgetExceededError(RuntimeError):
    """Raised when an assignment would exceed the total learning-task budget."""


@dataclass(frozen=True)
class SelectionOutcome:
    """Evaluation of a finished selection run (one method on one dataset)."""

    selected_worker_ids: Tuple[str, ...]
    mean_accuracy: float
    per_worker_accuracy: Dict[str, float]
    spent_budget: int
    n_rounds_used: int


def _seed_root(rng: SeedLike) -> int:
    """Integer root seed for the counter-based answer streams.

    An integer seed is used as-is (the common, fully reproducible case); a
    generator or ``None`` contributes one draw of entropy.
    """
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(as_generator(rng).integers(0, 2**63 - 1))


class AnnotationEnvironment:
    """Simulated crowdsourcing platform for one selection run.

    Parameters
    ----------
    pool:
        The worker pool ``W``; training exposure is reset on construction so
        every run starts from untrained workers.
    task_bank:
        Target-domain learning and working tasks.
    schedule:
        The budget schedule (Eq. 12-13) the run must respect.
    prior_domains:
        Ordered names of the prior domains (defines the column order of the
        historical-profile matrices).
    rng:
        Seed controlling the simulated answers.  An integer makes every
        stream reproducible; the same seed yields byte-identical records
        regardless of worker iteration order or process count.
    """

    def __init__(
        self,
        pool: WorkerPool,
        task_bank: TaskBank,
        schedule: BudgetSchedule,
        prior_domains: Sequence[str],
        rng: SeedLike = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive when given")
        self._pool = pool
        self._task_bank = task_bank
        self._schedule = schedule
        self._prior_domains = list(prior_domains)
        self._answer_root = _seed_root(rng)
        self._batch_size = batch_size
        self._history = AnswerHistory()
        self._spent_budget = 0
        self._next_task_index = 0
        self._pool.reset_training()
        hashes = token_hashes(pool.worker_ids)
        self._worker_hashes = {worker_id: hashes[i] for i, worker_id in enumerate(pool.worker_ids)}

    # ------------------------------------------------------------------ #
    # Observable state (what the paper's algorithms may use)
    # ------------------------------------------------------------------ #
    @property
    def schedule(self) -> BudgetSchedule:
        return self._schedule

    @property
    def prior_domains(self) -> List[str]:
        return list(self._prior_domains)

    @property
    def target_domain(self) -> str:
        return self._task_bank.domain

    @property
    def worker_ids(self) -> List[str]:
        return self._pool.worker_ids

    @property
    def history(self) -> AnswerHistory:
        return self._history

    @property
    def spent_budget(self) -> int:
        return self._spent_budget

    @property
    def remaining_budget(self) -> int:
        return self._schedule.total_budget - self._spent_budget

    def historical_profiles(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(H, N)`` matrices over the prior domains, in pool order."""
        return self._pool.profile_matrices(self._prior_domains)

    # ------------------------------------------------------------------ #
    # Learning-task assignment (Definition 3)
    # ------------------------------------------------------------------ #
    def _worker_stream_seeds(self, worker_ids: Sequence[str], stream: int, salt: int) -> np.ndarray:
        """Per-worker 64-bit stream seeds for one (stream, salt) context."""
        hashes = np.asarray([self._worker_hashes[worker_id] for worker_id in worker_ids], dtype=np.uint64)
        return stream_seeds(self._answer_root, hashes, stream, salt)

    def run_learning_round(
        self,
        worker_ids: Sequence[str],
        tasks_per_worker: int,
        round_index: Optional[int] = None,
    ) -> RoundRecord:
        """Assign a shared batch of learning tasks and collect the answers.

        The assignment is answered batch by batch (``batch_size`` golden
        questions at a time, mirroring the paper's survey protocol): a
        worker answers a batch at its current latent accuracy, the ground
        truth of that batch is revealed (advancing the worker's training
        exposure), and the next batch follows.  Only the correctness record
        is returned — latent accuracies stay hidden.

        Raises
        ------
        BudgetExceededError
            If the assignment would push the spent budget beyond ``B``.
        """
        if tasks_per_worker < 0:
            raise ValueError("tasks_per_worker must be non-negative")
        worker_ids = list(worker_ids)
        unknown = [w for w in worker_ids if w not in self._pool]
        if unknown:
            raise KeyError(f"assignment contains unknown workers: {unknown}")
        cost = tasks_per_worker * len(worker_ids)
        if self._spent_budget + cost > self._schedule.total_budget:
            raise BudgetExceededError(
                f"assignment of {cost} tasks exceeds the remaining budget "
                f"({self.remaining_budget} of {self._schedule.total_budget})"
            )
        resolved_round = round_index if round_index is not None else len(self._history) + 1
        latest = self._history.latest
        if latest is not None and resolved_round <= latest.round_index:
            # Each round owns its per-(worker, round) answer streams, so a
            # repeated index would silently replay the previous round's
            # uniforms.  Reject it *before* simulating (the history append
            # would raise anyway, but only after training had advanced).
            raise ValueError(
                f"round_index {resolved_round} is not past the last recorded round "
                f"({latest.round_index}); rounds must be strictly increasing"
            )
        assignment = build_round_assignment(
            task_bank=self._task_bank,
            worker_ids=worker_ids,
            round_index=resolved_round,
            start_index=self._next_task_index,
            tasks_per_worker=tasks_per_worker,
        )
        batch_size = self._batch_size if self._batch_size is not None else max(tasks_per_worker, 1)
        behaviors = [self._pool[worker_id] for worker_id in worker_ids]
        answers = simulate_round_answers(
            behaviors,
            self._worker_stream_seeds(worker_ids, _LEARNING_STREAM, resolved_round),
            tasks_per_worker,
            batch_size,
        )
        correctness = dict(zip(worker_ids, answers))

        record = RoundRecord(
            round_index=resolved_round,
            correctness=correctness,
            tasks_per_worker=tasks_per_worker,
        )
        self._history.append(record)
        self._spent_budget += cost
        self._next_task_index = assignment.next_start_index
        return record

    # ------------------------------------------------------------------ #
    # Evaluation (hidden from the selection algorithms)
    # ------------------------------------------------------------------ #
    def final_accuracy(self, worker_id: str) -> float:
        """A worker's latent accuracy after the full training schedule.

        Matches the paper's evaluation protocol: every worker in the surveys
        completes the whole learning/working sequence, so methods are
        compared on the accuracy workers reach at the *end* of training
        (exposure ``K_n``), regardless of when the method stopped assigning
        them tasks.
        """
        return self._pool[worker_id].accuracy_at(float(self._schedule.full_training_exposure))

    def evaluate_selection(
        self,
        worker_ids: Sequence[str],
        empirical: bool = False,
        n_working_tasks: Optional[int] = None,
        rng: SeedLike = None,
    ) -> SelectionOutcome:
        """Average working-task accuracy of the selected workers.

        Parameters
        ----------
        worker_ids:
            The selected workers ``W_T``.
        empirical:
            When ``True``, draw Bernoulli answers over ``n_working_tasks``
            working tasks instead of reporting the latent accuracy (adds the
            sampling noise a real evaluation would have).  With zero working
            tasks there is nothing to sample, so the outcome degrades to the
            latent accuracies instead of propagating NaN.
        rng:
            Optional seed overriding the environment's answer root for the
            empirical draw.  Every selected worker owns an independent
            evaluation stream, so the outcome does not depend on selection
            order or on which other workers were selected.
        """
        worker_ids = list(worker_ids)
        if not worker_ids:
            raise ValueError("cannot evaluate an empty selection")
        unknown = [w for w in worker_ids if w not in self._pool]
        if unknown:
            raise KeyError(f"selection contains unknown workers: {unknown}")
        if n_working_tasks is not None and n_working_tasks < 0:
            raise ValueError("n_working_tasks must be non-negative")
        n_tasks = n_working_tasks if n_working_tasks is not None else max(self._task_bank.n_working, 1)

        behaviors = [self._pool[worker_id] for worker_id in worker_ids]
        exposure = float(self._schedule.full_training_exposure)
        full_exposures = np.full((len(behaviors), 1), exposure)
        latents = behavior_accuracy_matrix(behaviors, full_exposures)[:, 0]

        if empirical and n_tasks > 0:
            root = self._answer_root if rng is None else _seed_root(rng)
            hashes = np.asarray(
                [self._worker_hashes[worker_id] for worker_id in worker_ids], dtype=np.uint64
            )
            seeds = stream_seeds(root, hashes, _EVALUATION_STREAM, 0)
            uniforms = counter_uniforms(seeds, n_tasks)
            values = np.mean(uniforms < latents[:, None], axis=1).tolist()
            per_worker = {worker_id: float(value) for worker_id, value in zip(worker_ids, values)}
        else:
            per_worker = {worker_id: float(value) for worker_id, value in zip(worker_ids, latents)}
        mean_accuracy = float(np.mean(list(per_worker.values())))
        return SelectionOutcome(
            selected_worker_ids=tuple(worker_ids),
            mean_accuracy=mean_accuracy,
            per_worker_accuracy=per_worker,
            spent_budget=self._spent_budget,
            n_rounds_used=len(self._history),
        )

    def ground_truth_top_k(self, k: int) -> List[str]:
        """The truly best ``k`` workers by final (fully trained) accuracy."""
        if k <= 0:
            raise ValueError("k must be positive")
        ranked = sorted(self._pool.worker_ids, key=self.final_accuracy, reverse=True)
        return ranked[: min(k, len(ranked))]

    def summary(self) -> Dict[str, object]:
        """Run metadata used by the experiment reports and the CLI."""
        return {
            "target_domain": self.target_domain,
            "pool_size": len(self._pool),
            "k": self._schedule.k,
            "total_budget": self._schedule.total_budget,
            "n_rounds": self._schedule.n_rounds,
            "spent_budget": self._spent_budget,
            "learning_tasks_available": self._task_bank.n_learning,
            "learning_tasks_cycled": self._next_task_index > self._task_bank.n_learning,
        }


__all__ = ["AnnotationEnvironment", "BudgetExceededError", "SelectionOutcome"]
