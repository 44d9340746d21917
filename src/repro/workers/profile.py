"""Worker historical profiles (Definition 2 of the paper).

Each worker ``w_i`` carries a historical profile ``(h_i, n_i)`` where
``h_{i,d}`` is the annotation accuracy the worker achieved on prior domain
``d`` and ``n_{i,d}`` the number of annotation tasks completed there.  A
missing record on some domain is allowed (Section IV-E): the selection
algorithms drop the corresponding rows/terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class WorkerProfile:
    """Historical ``(h_i, n_i)`` profile of a single worker.

    Attributes
    ----------
    worker_id:
        Stable identifier within the pool.
    accuracies:
        Mapping from prior-domain name to the worker's historical accuracy
        there; domains the worker never annotated are simply absent.
    task_counts:
        Mapping from prior-domain name to the number of tasks the worker
        completed there; keys must match ``accuracies``.
    """

    worker_id: str
    accuracies: Mapping[str, float] = field(default_factory=dict)
    task_counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.accuracies) != set(self.task_counts):
            raise ValueError(
                f"worker {self.worker_id}: accuracies and task_counts must cover the same domains"
            )
        for domain, accuracy in self.accuracies.items():
            if not 0.0 <= accuracy <= 1.0:
                raise ValueError(f"worker {self.worker_id}: accuracy on {domain!r} must lie in [0, 1]")
        for domain, count in self.task_counts.items():
            if count < 0:
                raise ValueError(f"worker {self.worker_id}: task count on {domain!r} must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def domains(self) -> Tuple[str, ...]:
        """Prior domains with a recorded history, in sorted order."""
        return tuple(sorted(self.accuracies))

    def accuracy_vector(self, domain_order: Sequence[str]) -> np.ndarray:
        """Accuracies in a fixed domain order; missing domains become NaN."""
        return np.array([self.accuracies.get(d, np.nan) for d in domain_order], dtype=float)

    def task_count_vector(self, domain_order: Sequence[str]) -> np.ndarray:
        """Task counts in a fixed domain order; missing domains become 0."""
        return np.array([self.task_counts.get(d, 0) for d in domain_order], dtype=float)

    def observed_indices(self, domain_order: Sequence[str]) -> List[int]:
        """Indices (within ``domain_order``) of domains the worker has history on."""
        return [i for i, d in enumerate(domain_order) if d in self.accuracies]

    def with_domain(self, domain: str, accuracy: float, task_count: int) -> "WorkerProfile":
        """Return a copy of the profile extended with one more prior domain."""
        accuracies = dict(self.accuracies)
        counts = dict(self.task_counts)
        accuracies[domain] = accuracy
        counts[domain] = task_count
        return WorkerProfile(self.worker_id, accuracies, counts)


def profiles_to_matrix(
    profiles: Iterable[WorkerProfile],
    domain_order: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack profiles into ``(H, N)`` matrices in a fixed domain order.

    Missing accuracies are NaN in ``H`` and zero in ``N``; downstream
    estimators must handle NaN rows explicitly (per Section IV-E).
    """
    profile_list = list(profiles)
    accuracy_matrix = np.vstack([p.accuracy_vector(domain_order) for p in profile_list]) if profile_list else np.empty((0, len(domain_order)))
    count_matrix = np.vstack([p.task_count_vector(domain_order) for p in profile_list]) if profile_list else np.empty((0, len(domain_order)))
    return accuracy_matrix, count_matrix


__all__ = ["WorkerProfile", "profiles_to_matrix"]
