"""Answer simulation one worker, one batch and one vote at a time.

:func:`round_answers` is the per-worker loop that
:func:`repro.platform.answers.simulate_round_answers` replaces with one
accuracy matrix and one Bernoulli draw; :func:`evaluation_accuracies` is
the per-worker form of the empirical draw in
:meth:`repro.platform.session.AnnotationEnvironment.evaluate_selection`;
:func:`scalar_answer` is one marketplace vote drawn the way
``Marketplace.answer`` draws a whole campaign-tick.  Each consumes the
same counter-based streams as the batched path and must agree with it bit
for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.marketplace.orchestrator import MarketWorker
from repro.platform import session
from repro.platform.answers import split_batches
from repro.platform.tasks import Task
from repro.stats.rng import counter_uniforms, stream_seeds, token_hashes
from repro.workers.behavior import WorkerBehavior


def round_answers(
    behaviors: Sequence[WorkerBehavior],
    stream_seeds: np.ndarray,
    tasks_per_worker: int,
    batch_size: int,
) -> List[np.ndarray]:
    """One round, worker by worker and batch by batch (same signature as the library's)."""
    sizes = split_batches(tasks_per_worker, batch_size)
    seeds = np.asarray(stream_seeds, dtype=np.uint64)
    rows: List[np.ndarray] = []
    for index, worker in enumerate(behaviors):
        answered: List[np.ndarray] = []
        drawn = 0
        for size in sizes:
            uniforms = counter_uniforms(seeds[index : index + 1], size, offset=drawn)[0]
            answered.append(uniforms < worker.current_accuracy)
            worker.observe_feedback(size)
            drawn += size
        rows.append(np.concatenate(answered) if answered else np.zeros(0, dtype=bool))
    return rows


def use_round_answers(monkeypatch) -> None:
    """Make every :class:`AnnotationEnvironment` simulate its rounds with :func:`round_answers`."""
    monkeypatch.setattr(session, "simulate_round_answers", round_answers)


def evaluation_accuracies(
    environment: session.AnnotationEnvironment, worker_ids: Sequence[str], n_tasks: int
) -> Dict[str, float]:
    """The empirical working-task accuracy of each worker, one evaluation stream at a time."""
    hashes = np.asarray([environment._worker_hashes[worker_id] for worker_id in worker_ids], dtype=np.uint64)
    seeds = stream_seeds(environment._answer_root, hashes, session._EVALUATION_STREAM, 0)
    return {
        worker_id: float(
            np.mean(counter_uniforms(seeds[i : i + 1], n_tasks)[0] < environment.final_accuracy(worker_id))
        )
        for i, worker_id in enumerate(worker_ids)
    }


def scalar_answer(answer_seed: int, worker: MarketWorker, count: int, task: Task, campaign: str) -> bool:
    """One vote the scalar way: its own seed, one uniform, one ``accuracy_at``."""
    if worker.behavior is not None and task.domain == worker.target_domain:
        accuracy = float(worker.behavior.accuracy_at(worker.exposure_offset + count))
    else:
        accuracy = worker.accuracies.get(task.domain, 0.5)
    seed = stream_seeds(answer_seed, token_hashes([worker.worker_id]), int(token_hashes([campaign])[0]))
    draw = counter_uniforms(seed, 1, offset=count)[0, 0]
    return bool(task.gold_label) if draw < accuracy else not bool(task.gold_label)
