"""The worker pool container.

A thin, order-preserving collection of worker behaviours with convenient
lookups by identifier and bulk access to profiles.  Both the platform
simulator and the selection algorithms operate on pools.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.workers.behavior import WorkerBehavior
from repro.workers.profile import WorkerProfile, profiles_to_matrix


class WorkerPool:
    """An ordered collection of workers with unique identifiers."""

    def __init__(self, workers: Iterable[WorkerBehavior]) -> None:
        self._workers: List[WorkerBehavior] = list(workers)
        self._by_id: Dict[str, WorkerBehavior] = {}
        for worker in self._workers:
            if worker.worker_id in self._by_id:
                raise ValueError(f"duplicate worker id: {worker.worker_id!r}")
            self._by_id[worker.worker_id] = worker
        if not self._workers:
            raise ValueError("a worker pool must contain at least one worker")

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[WorkerBehavior]:
        return iter(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._by_id

    def __getitem__(self, worker_id: str) -> WorkerBehavior:
        try:
            return self._by_id[worker_id]
        except KeyError:
            raise KeyError(f"unknown worker id: {worker_id!r}") from None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def worker_ids(self) -> List[str]:
        """All worker identifiers in pool order."""
        return [w.worker_id for w in self._workers]

    @property
    def workers(self) -> List[WorkerBehavior]:
        """All worker behaviours in pool order (a copy of the internal list)."""
        return list(self._workers)

    def profiles(self) -> List[WorkerProfile]:
        """Historical profiles of every worker, in pool order."""
        return [w.profile for w in self._workers]

    def subset(self, worker_ids: Sequence[str]) -> "WorkerPool":
        """A new pool containing only the given workers, sharing behaviour objects."""
        return WorkerPool([self[worker_id] for worker_id in worker_ids])

    def profile_matrices(self, domain_order: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """``(H, N)`` matrices of historical accuracies and task counts."""
        return profiles_to_matrix(self.profiles(), domain_order)

    def accuracies_at(self, exposure: float) -> Dict[str, float]:
        """Latent accuracy of every worker at a common hypothetical exposure."""
        return {w.worker_id: w.accuracy_at(exposure) for w in self._workers}

    def reset_training(self) -> None:
        """Reset all workers' target-domain training (between repetitions)."""
        for worker in self._workers:
            worker.reset_training()


__all__ = ["WorkerPool"]
