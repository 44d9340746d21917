"""Pool-level answer simulation: the platform's last hot path, vectorized.

Simulating one learning round used to walk a per-worker, per-batch Python
loop (`answer_tasks` / `observe_feedback` per worker) — at 640+ workers that
loop dominates a selection run the way the CPE update did before PR 2.  This
module replaces it with a batched path:

* one **accuracy matrix** per round: workers are grouped by behaviour class
  and each class evaluates its latent accuracy curve for all its workers and
  all batch offsets at once (:func:`behavior_accuracy_matrix`);
* one **vectorized Bernoulli draw** per round: every (worker, round) pair
  owns a counter-based uniform stream
  (:func:`repro.stats.rng.counter_uniforms`), so the whole round's answers
  are a single ``uniforms < accuracies`` comparison.

The original per-worker loop is kept only as a test oracle
(``tests/oracles/answers.py``).  It consumes the *same* per-(worker, round)
streams and the same curve formulas — the scalar ``accuracy_at`` delegates
to the batched curve — so it produces **bit-identical** correctness records:
the loop is the executable specification of this path.

Because every stream seed is a pure function of ``(environment seed,
worker id, round index)``, simulated answers are independent of pool
iteration order, of which other workers share the round, and of the process
that runs them — the property the parallel experiment runner relies on for
job-count-independent results.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

import numpy as np

from repro.stats.rng import counter_uniforms
from repro.workers.behavior import WorkerBehavior


def split_batches(tasks_per_worker: int, batch_size: int) -> List[int]:
    """Batch sizes of one round: ``batch_size`` chunks, last one possibly short."""
    if tasks_per_worker < 0:
        raise ValueError("tasks_per_worker must be non-negative")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    full, remainder = divmod(tasks_per_worker, batch_size)
    return [batch_size] * full + ([remainder] if remainder else [])


def behavior_accuracy_matrix(behaviors: Sequence[WorkerBehavior], exposures: np.ndarray) -> np.ndarray:
    """Latent accuracy of every worker at every exposure point.

    Groups ``behaviors`` by class and evaluates each class's batched
    accuracy curve once (the PR 2 pattern-grouping idea applied to
    behaviours).  Classes without a batched curve — third-party behaviours
    that only override ``accuracy_at`` — fall back to a per-worker scalar
    loop, which is slower but produces the same values.

    Parameters
    ----------
    behaviors:
        ``W`` worker behaviours, in row order.
    exposures:
        ``(W, P)`` matrix of training exposures to evaluate.
    """
    exposures = np.asarray(exposures, dtype=float)
    if exposures.ndim != 2 or exposures.shape[0] != len(behaviors):
        raise ValueError(
            f"exposures must have shape ({len(behaviors)}, P), got {exposures.shape}"
        )
    result = np.empty_like(exposures)
    groups: Dict[Type[WorkerBehavior], List[int]] = {}
    for index, behavior in enumerate(behaviors):
        groups.setdefault(type(behavior), []).append(index)
    for cls, indices in groups.items():
        rows = np.asarray(indices, dtype=np.intp)
        if cls.supports_batch_curve():
            per_worker = [behaviors[i].curve_params() for i in indices]
            params = {
                key: np.asarray([p[key] for p in per_worker], dtype=float)
                for key in per_worker[0]
            }
            result[rows] = cls.batch_accuracy(params, exposures[rows])
        else:
            for i in indices:
                result[i] = [behaviors[i].accuracy_at(point) for point in exposures[i]]
    return result


def simulate_round_answers(
    behaviors: Sequence[WorkerBehavior],
    stream_seeds: np.ndarray,
    tasks_per_worker: int,
    batch_size: int,
) -> List[np.ndarray]:
    """Simulate one round's answers for a set of workers; advances training.

    Implements the paper's survey protocol: each worker answers the round's
    shared batch ``batch_size`` golden questions at a time, at the latent
    accuracy of its exposure *before* that chunk, then the chunk's ground
    truth is revealed (advancing exposure) and the next chunk follows.

    Parameters
    ----------
    behaviors:
        The participating workers, in round order.
    stream_seeds:
        One 64-bit stream seed per worker (see
        :func:`repro.stats.rng.stream_seeds`); draw ``t`` of worker ``i``'s
        round is ``counter_uniforms(stream_seeds[i:i+1], ...)`` draw ``t``.

    Returns
    -------
    list of numpy.ndarray
        Per-worker boolean correctness arrays of length ``tasks_per_worker``,
        in ``behaviors`` order.
    """
    sizes = split_batches(tasks_per_worker, batch_size)
    seeds = np.asarray(stream_seeds, dtype=np.uint64)
    if seeds.shape != (len(behaviors),):
        raise ValueError(f"stream_seeds must have shape ({len(behaviors)},), got {seeds.shape}")

    # One accuracy matrix, one Bernoulli draw.
    offsets = np.concatenate([[0.0], np.cumsum(sizes, dtype=float)[:-1]]) if sizes else np.zeros(0)
    starts = np.asarray([worker.training_exposure for worker in behaviors], dtype=float)
    per_batch = behavior_accuracy_matrix(behaviors, starts[:, None] + offsets[None, :])
    per_task = np.repeat(per_batch, sizes, axis=1)
    uniforms = counter_uniforms(seeds, tasks_per_worker)
    correct = uniforms < per_task
    for worker in behaviors:
        worker.observe_feedback(tasks_per_worker)
    return [correct[index] for index in range(len(behaviors))]


__all__ = [
    "split_batches",
    "behavior_accuracy_matrix",
    "simulate_round_answers",
]
