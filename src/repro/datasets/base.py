"""Dataset specification and instantiation.

A :class:`DatasetSpec` is a *recipe*: domain structure, pool size, per-batch
learning-task count ``Q``, target selection size ``k`` and the worker
population configuration.  Instantiating it with a seed draws a concrete
worker pool and task bank, producing a :class:`DatasetInstance` from which
fresh :class:`~repro.platform.session.AnnotationEnvironment` objects can be
created — one per (method, repetition) so runs never share training state.

Figure 6 and Figure 7 vary ``k`` and ``Q`` on the same datasets, so both can
be overridden at instantiation time; the budget then follows Table II's
``B = ceil(log2(|W|/k)) * Q * |W|`` convention automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.platform.budget import BudgetSchedule, compute_budget, default_total_budget, number_of_batches
from repro.platform.session import AnnotationEnvironment
from repro.platform.tasks import TaskBank, generate_task_bank
from repro.stats.rng import SeedLike, derive_seed
from repro.workers.pool import WorkerPool
from repro.workers.population import PopulationConfig, sample_learning_population


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one of the paper's evaluation datasets.

    Attributes
    ----------
    name:
        Dataset identifier (``"RW-1"``, ``"S-3"``, ...).
    population:
        Worker-population configuration (domains, moments, correlations,
        learning rates).
    n_workers:
        Worker-pool size ``|W|``.
    tasks_per_batch:
        The paper's ``Q`` — learning tasks per batch on the target domain.
    k:
        Default number of workers to select.
    n_working_tasks:
        Size of the working-task set used for evaluation.
    description:
        Human-readable provenance note.
    seed_name:
        Name used for seed derivation when it differs from ``name``.
        Scenario variants (``"S-1:spammer10"``) set this to the base
        dataset's name so the clean portion of a contaminated pool — and
        the task bank — is *identical* to the uncontaminated draw of the
        same seed, making contamination sweeps paired comparisons.
    """

    name: str
    population: PopulationConfig
    n_workers: int
    tasks_per_batch: int
    k: int
    n_working_tasks: int = 100
    description: str = ""
    seed_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.tasks_per_batch <= 0:
            raise ValueError("tasks_per_batch must be positive")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.k > self.n_workers:
            raise ValueError("k cannot exceed the pool size")
        if self.n_working_tasks <= 0:
            raise ValueError("n_working_tasks must be positive")

    # ------------------------------------------------------------------ #
    @property
    def prior_domains(self) -> List[str]:
        return list(self.population.prior_domains)

    @property
    def target_domain(self) -> str:
        return self.population.target_domain

    def total_budget(self, k: Optional[int] = None, tasks_per_batch: Optional[int] = None) -> int:
        """Table II's ``B`` for the (possibly overridden) ``k`` and ``Q``."""
        return default_total_budget(
            self.n_workers,
            k if k is not None else self.k,
            tasks_per_batch if tasks_per_batch is not None else self.tasks_per_batch,
        )

    def schedule(self, k: Optional[int] = None, tasks_per_batch: Optional[int] = None) -> BudgetSchedule:
        """Budget schedule for the (possibly overridden) ``k`` and ``Q``."""
        resolved_k = k if k is not None else self.k
        return compute_budget(self.n_workers, resolved_k, self.total_budget(k, tasks_per_batch))

    def statistics(self) -> Dict[str, int]:
        """The Table II row for this dataset."""
        return {
            "workers": self.n_workers,
            "Q": self.tasks_per_batch,
            "k": self.k,
            "batches": number_of_batches(self.n_workers, self.k),
            "B": self.total_budget(),
        }

    def with_overrides(self, **changes: object) -> "DatasetSpec":
        """A copy of the spec with some fields replaced (frozen-dataclass helper)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    def instantiate(
        self,
        seed: SeedLike = 0,
        k: Optional[int] = None,
        tasks_per_batch: Optional[int] = None,
    ) -> "DatasetInstance":
        """Draw a concrete worker pool and task bank for this spec.

        The same ``seed`` always yields the same pool, so the elimination
        methods compared in one experiment cell face identical workers.
        """
        derivation_name = self.seed_name if self.seed_name is not None else self.name
        pool_seed = derive_seed(seed, derivation_name, "pool")
        task_seed = derive_seed(seed, derivation_name, "tasks")
        # The id prefix follows the seed name so a scenario pool's workers
        # carry the same ids (and thus the same per-worker answer streams)
        # as the base dataset's — contamination sweeps stay paired.
        workers = sample_learning_population(
            self.population,
            n_workers=self.n_workers,
            rng=pool_seed,
            id_prefix=derivation_name.lower(),
        )
        schedule = self.schedule(k=k, tasks_per_batch=tasks_per_batch)
        # Enough distinct golden questions for a never-eliminated worker,
        # plus one extra batch of slack before the bank cycles.
        n_learning = schedule.full_training_exposure + self.tasks_per_batch
        task_bank = generate_task_bank(
            domain=self.target_domain,
            n_learning=max(n_learning, 1),
            n_working=self.n_working_tasks,
            rng=task_seed,
        )
        return DatasetInstance(spec=self, pool=WorkerPool(workers), task_bank=task_bank, schedule=schedule, seed=seed)


@dataclass
class DatasetInstance:
    """A concrete draw of a dataset: worker pool, task bank and schedule."""

    spec: DatasetSpec
    pool: WorkerPool
    task_bank: TaskBank
    schedule: BudgetSchedule
    seed: SeedLike = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def prior_domains(self) -> List[str]:
        return self.spec.prior_domains

    @property
    def target_domain(self) -> str:
        return self.spec.target_domain

    def environment(self, run_seed: SeedLike = None) -> AnnotationEnvironment:
        """A fresh environment for one selection run.

        Worker training exposure is reset by the environment constructor, so
        every method / repetition starts from the same untrained pool.
        """
        derivation_name = self.spec.seed_name if self.spec.seed_name is not None else self.name
        answer_seed = derive_seed(self.seed, derivation_name, "answers", run_seed if run_seed is not None else 0)
        return AnnotationEnvironment(
            pool=self.pool,
            task_bank=self.task_bank,
            schedule=self.schedule,
            prior_domains=self.prior_domains,
            rng=answer_seed,
            batch_size=self.spec.tasks_per_batch,
        )

    # ------------------------------------------------------------------ #
    # Oracle views used by the evaluation and consistency modules
    # ------------------------------------------------------------------ #
    def initial_target_accuracies(self) -> np.ndarray:
        """Latent pre-training target-domain accuracy of every worker."""
        return np.array([w.accuracy_at(0.0) for w in self.pool], dtype=float)

    def first_batch_target_accuracies(self) -> np.ndarray:
        """Latent accuracy after the first batch of ``Q`` learning tasks.

        This is the quantity the paper's Table IV reports for the target
        domain ("calculated based on the first batch learning task results")
        and the one its consistency analysis buckets.
        """
        exposure = float(self.spec.tasks_per_batch)
        return np.array([w.accuracy_at(exposure) for w in self.pool], dtype=float)

    def final_target_accuracies(self) -> np.ndarray:
        """Latent fully trained target-domain accuracy of every worker."""
        exposure = float(self.schedule.full_training_exposure)
        return np.array([w.accuracy_at(exposure) for w in self.pool], dtype=float)

    def prior_accuracy_matrix(self) -> np.ndarray:
        """Historical accuracies over the prior domains (workers x domains)."""
        matrix, _ = self.pool.profile_matrices(self.prior_domains)
        return matrix

    def ground_truth_mean_accuracy(self, k: Optional[int] = None) -> float:
        """The Table V "Ground Truth" row: mean final accuracy of the true top-k."""
        resolved_k = k if k is not None else self.schedule.k
        finals = np.sort(self.final_target_accuracies())[::-1]
        return float(np.mean(finals[: min(resolved_k, finals.size)]))


__all__ = ["DatasetSpec", "DatasetInstance"]
