"""Streaming label aggregation for the serving phase.

The batch aggregators (:mod:`repro.aggregation`) assume the full
``(workers x tasks)`` answer matrix is available; a serving loop instead
sees one answer at a time and needs a label estimate *now*.  Two online
aggregators cover the spectrum:

* :class:`OnlineMajorityVote` — exact streaming majority: O(1) per answer,
  semantics identical to :func:`repro.aggregation.majority.majority_vote`.
* :class:`IncrementalDawidSkene` — a per-answer confusion-aware update:
  each arriving answer adjusts the task's posterior log-odds using the
  worker's current sensitivity/specificity estimate, and the worker's
  estimates using the task's refreshed posterior — O(1) per answer, no
  re-scan of earlier answers.  The streamed posterior is a first-order
  approximation; :meth:`IncrementalDawidSkene.converge` runs the exact EM
  of :class:`repro.aggregation.dawid_skene.DawidSkeneAggregator` over the
  accumulated sparse answer triplets (same initialisation, smoothing and
  stopping rule), so its converged posterior matches the batch aggregator
  on a replayed stream to numerical round-off.

Both classes key answers by string task/worker ids and preserve
first-seen order, so a deterministic routing trace yields a deterministic
label dictionary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.aggregation.dawid_skene import DawidSkeneResult

_SMOOTH = 1e-6  # matches repro.aggregation.dawid_skene._SMOOTH
#: Pseudo-count anchoring a brand-new worker's streamed confusion estimate
#: at the batch initialiser's 0.7/0.7 starting point.
_PSEUDO_COUNT = 1.0
_PSEUDO_RATE = 0.7


class _AggregatorMetrics:
    """Pre-bound convergence/ingestion metrics for one aggregator."""

    __slots__ = ("votes", "converged", "not_converged", "iterations")

    def __init__(self, registry, aggregator_name: str) -> None:
        self.votes = registry.metric("aggregation.votes.ingested").labels(aggregator_name)
        runs = registry.metric("aggregation.converge.runs")
        self.converged = runs.labels(aggregator_name, "true")
        self.not_converged = runs.labels(aggregator_name, "false")
        self.iterations = registry.metric("aggregation.converge.iterations").labels(aggregator_name)


class OnlineMajorityVote:
    """Exact streaming majority vote over string task ids."""

    name = "majority"

    def __init__(self, tie_break: bool = True) -> None:
        self._tie_break = tie_break
        self._positive: Dict[str, int] = {}
        self._total: Dict[str, int] = {}
        self._metrics: Optional[_AggregatorMetrics] = None

    def bind_metrics(self, registry) -> None:
        """Attach ingestion counters from a metrics registry."""
        self._metrics = _AggregatorMetrics(registry, self.name)

    @property
    def n_tasks(self) -> int:
        return len(self._total)

    @property
    def n_answers(self) -> int:
        return sum(self._total.values())

    def add(self, task_id: str, worker_id: str, answer: bool) -> bool:
        """Record one answer; returns the task's updated label."""
        self._positive[task_id] = self._positive.get(task_id, 0) + int(bool(answer))
        self._total[task_id] = self._total.get(task_id, 0) + 1
        if self._metrics is not None:
            self._metrics.votes.inc()
        return self.label(task_id)

    def label(self, task_id: str) -> bool:
        """Current label of ``task_id`` (ties resolved by ``tie_break``)."""
        total = self._total.get(task_id, 0)
        positive = self._positive.get(task_id, 0)
        if total == 0 or positive * 2 == total:
            return self._tie_break
        return positive * 2 > total

    def labels(self) -> Dict[str, bool]:
        """All task labels, in first-seen task order."""
        return {task_id: self.label(task_id) for task_id in self._total}


class IncrementalDawidSkene:
    """Per-answer Dawid-Skene with an exact EM replay over its own state.

    ``add`` is O(1): it updates the task's posterior log-odds with the
    answering worker's current confusion estimate and then refreshes that
    worker's estimate with the task's new posterior.  ``labels`` reads the
    streamed posteriors.  ``converge`` runs the batch EM over the sparse
    ``(worker, task, answer)`` triplets accumulated so far — it never needs
    the platform's answer history, only the aggregator's own state.
    """

    def __init__(self, max_iterations: int = 100, tolerance: float = 1e-6) -> None:
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._metrics: Optional[_AggregatorMetrics] = None

        self._task_index: Dict[str, int] = {}
        self._worker_index: Dict[str, int] = {}
        self._seen_pairs: Set[Tuple[int, int]] = set()
        # Sparse answer triplets, appended per answer.
        self._answer_workers: List[int] = []
        self._answer_tasks: List[int] = []
        self._answer_values: List[float] = []
        # Streaming state: per-task posterior log-odds, per-worker
        # posterior-weighted confusion counts.
        self._log_odds: List[float] = []
        self._votes_positive: List[int] = []
        self._votes_total: List[int] = []
        self._sens_num: List[float] = []
        self._sens_den: List[float] = []
        self._spec_num: List[float] = []
        self._spec_den: List[float] = []

    name = "dawid_skene"

    def bind_metrics(self, registry) -> None:
        """Attach ingestion and convergence metrics from a metrics registry."""
        self._metrics = _AggregatorMetrics(registry, self.name)

    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        return len(self._task_index)

    @property
    def n_workers(self) -> int:
        return len(self._worker_index)

    @property
    def n_answers(self) -> int:
        return len(self._answer_values)

    @property
    def task_ids(self) -> List[str]:
        """Task ids in first-seen order (the row order of ``converge``)."""
        return list(self._task_index)

    @property
    def worker_ids(self) -> List[str]:
        """Worker ids in first-seen order."""
        return list(self._worker_index)

    # ------------------------------------------------------------------ #
    def _task(self, task_id: str) -> int:
        index = self._task_index.get(task_id)
        if index is None:
            index = len(self._task_index)
            self._task_index[task_id] = index
            self._log_odds.append(0.0)
            self._votes_positive.append(0)
            self._votes_total.append(0)
        return index

    def _worker(self, worker_id: str) -> int:
        index = self._worker_index.get(worker_id)
        if index is None:
            index = len(self._worker_index)
            self._worker_index[worker_id] = index
            self._sens_num.append(_PSEUDO_RATE * _PSEUDO_COUNT)
            self._sens_den.append(_PSEUDO_COUNT)
            self._spec_num.append(_PSEUDO_RATE * _PSEUDO_COUNT)
            self._spec_den.append(_PSEUDO_COUNT)
        return index

    def _worker_rates(self, worker: int) -> Tuple[float, float]:
        sensitivity = (self._sens_num[worker] + _SMOOTH) / (self._sens_den[worker] + 2 * _SMOOTH)
        specificity = (self._spec_num[worker] + _SMOOTH) / (self._spec_den[worker] + 2 * _SMOOTH)
        return sensitivity, specificity

    def add(self, task_id: str, worker_id: str, answer: bool) -> bool:
        """Record one answer; returns the task's updated streamed label."""
        task = self._task(task_id)
        worker = self._worker(worker_id)
        if (worker, task) in self._seen_pairs:
            raise ValueError(f"worker {worker_id!r} already answered task {task_id!r}")
        self._seen_pairs.add((worker, task))
        value = float(bool(answer))

        sensitivity, specificity = self._worker_rates(worker)
        if answer:
            evidence = np.log(sensitivity) - np.log(1.0 - specificity)
        else:
            evidence = np.log(1.0 - sensitivity) - np.log(specificity)
        self._log_odds[task] += float(evidence)
        self._votes_positive[task] += int(bool(answer))
        self._votes_total[task] += 1
        posterior = self._posterior_of(task)

        self._sens_num[worker] += posterior * value
        self._sens_den[worker] += posterior
        self._spec_num[worker] += (1.0 - posterior) * (1.0 - value)
        self._spec_den[worker] += 1.0 - posterior

        self._answer_workers.append(worker)
        self._answer_tasks.append(task)
        self._answer_values.append(value)
        if self._metrics is not None:
            self._metrics.votes.inc()
        return bool(posterior >= 0.5)

    def _posterior_of(self, task: int) -> float:
        return float(1.0 / (1.0 + np.exp(-self._log_odds[task])))

    def label(self, task_id: str) -> bool:
        """Current streamed label of ``task_id``."""
        index = self._task_index.get(task_id)
        if index is None:
            raise KeyError(f"no answers recorded for task {task_id!r}")
        return self._posterior_of(index) >= 0.5

    def labels(self) -> Dict[str, bool]:
        """Streamed labels of every task, in first-seen order."""
        return {task_id: self._posterior_of(index) >= 0.5 for task_id, index in self._task_index.items()}

    # ------------------------------------------------------------------ #
    def converge(
        self,
        max_iterations: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> DawidSkeneResult:
        """Exact EM over the accumulated answers (batch-equivalent).

        Runs the same EM as
        :class:`repro.aggregation.dawid_skene.DawidSkeneAggregator` —
        majority-vote initialisation clipped to ``[0.05, 0.95]``, identical
        smoothing and stopping rule — but over the sparse triplets this
        aggregator accumulated, task rows in first-seen order and worker
        rows in first-seen order.
        """
        if self.n_answers == 0:
            raise ValueError("cannot converge an aggregator with no answers")
        max_iterations = max_iterations if max_iterations is not None else self._max_iterations
        tolerance = tolerance if tolerance is not None else self._tolerance
        workers = np.asarray(self._answer_workers, dtype=np.intp)
        tasks = np.asarray(self._answer_tasks, dtype=np.intp)
        answers = np.asarray(self._answer_values, dtype=float)
        n_workers = self.n_workers
        n_tasks = self.n_tasks

        positive = np.asarray(self._votes_positive, dtype=float)
        totals = np.asarray(self._votes_total, dtype=float)
        majority = np.where(totals == 0, True, np.where(positive * 2 == totals, True, positive * 2 > totals))
        posterior = np.clip(majority.astype(float), 0.05, 0.95)

        sensitivity = np.full(n_workers, _PSEUDO_RATE)
        specificity = np.full(n_workers, _PSEUDO_RATE)
        prior = float(np.clip(posterior.mean(), _SMOOTH, 1.0 - _SMOOTH))

        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            # ---------------- M-step ---------------- #
            weight_pos = posterior[tasks]
            weight_neg = 1.0 - weight_pos
            sensitivity = np.bincount(workers, weights=weight_pos * answers, minlength=n_workers) + _SMOOTH
            sensitivity /= np.bincount(workers, weights=weight_pos, minlength=n_workers) + 2 * _SMOOTH
            specificity = np.bincount(workers, weights=weight_neg * (1.0 - answers), minlength=n_workers) + _SMOOTH
            specificity /= np.bincount(workers, weights=weight_neg, minlength=n_workers) + 2 * _SMOOTH
            prior = float(np.clip(posterior.mean(), _SMOOTH, 1.0 - _SMOOTH))

            # ---------------- E-step ---------------- #
            evidence_pos = answers * np.log(sensitivity[workers]) + (1.0 - answers) * np.log(
                1.0 - sensitivity[workers]
            )
            evidence_neg = (1.0 - answers) * np.log(specificity[workers]) + answers * np.log(
                1.0 - specificity[workers]
            )
            log_pos = np.log(prior) + np.bincount(tasks, weights=evidence_pos, minlength=n_tasks)
            log_neg = np.log(1.0 - prior) + np.bincount(tasks, weights=evidence_neg, minlength=n_tasks)
            shift = np.maximum(log_pos, log_neg)
            new_posterior = np.exp(log_pos - shift) / (np.exp(log_pos - shift) + np.exp(log_neg - shift))

            if np.max(np.abs(new_posterior - posterior)) < tolerance:
                posterior = new_posterior
                converged = True
                break
            posterior = new_posterior

        if self._metrics is not None:
            (self._metrics.converged if converged else self._metrics.not_converged).inc()
            self._metrics.iterations.observe(iteration)
        return DawidSkeneResult(
            labels=posterior >= 0.5,
            posterior_positive=posterior,
            worker_accuracy=0.5 * (sensitivity + specificity),
            class_prior=prior,
            n_iterations=iteration,
            converged=converged,
        )

    def converged_labels(self) -> Dict[str, bool]:
        """Task labels after the exact EM replay, in first-seen order."""
        result = self.converge()
        return {task_id: bool(result.labels[index]) for task_id, index in self._task_index.items()}


__all__ = ["OnlineMajorityVote", "IncrementalDawidSkene"]
