"""Shared fixtures for the test suite.

Most tests need a small, fast dataset and cheap estimator configurations so
the whole suite runs in well under a minute.  The fixtures here provide
them; tests that need the paper-scale datasets build them explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.config import ExperimentConfig
from repro.core.cpe import CPEConfig
from repro.core.lge import LGEConfig
from repro.datasets.base import DatasetSpec
from repro.datasets.synthetic import synthetic_spec
from repro.platform.budget import compute_budget
from repro.platform.session import AnnotationEnvironment
from repro.platform.tasks import generate_task_bank
from repro.workers.behavior import LearningWorker, StaticWorker
from repro.workers.pool import WorkerPool
from repro.workers.profile import WorkerProfile

# Hypothesis profiles, chosen with ``--hypothesis-profile``.  ``ci`` is
# bounded and derandomized, so a CI run explores the same examples every
# time; ``deep`` is for long local bug hunts.  Without the flag hypothesis
# uses its own defaults.
settings.register_profile("ci", max_examples=50, deadline=None, derandomize=True)
settings.register_profile("deep", max_examples=2000, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_spec() -> DatasetSpec:
    """A 12-worker synthetic dataset with a small budget (fast to run)."""
    return synthetic_spec("tiny", n_workers=12, tasks_per_batch=5, k=3)


@pytest.fixture
def tiny_instance(tiny_spec):
    return tiny_spec.instantiate(seed=3)


@pytest.fixture
def tiny_environment(tiny_instance) -> AnnotationEnvironment:
    return tiny_instance.environment(run_seed=0)


@pytest.fixture
def fast_cpe_config() -> CPEConfig:
    """CPE configuration with few epochs/quadrature nodes for quick tests."""
    return CPEConfig(n_epochs=3, n_quadrature_nodes=24)


@pytest.fixture
def fast_lge_config() -> LGEConfig:
    return LGEConfig()


@pytest.fixture
def fast_experiment_config(fast_cpe_config) -> ExperimentConfig:
    return ExperimentConfig(n_repetitions=1, base_seed=11, cpe_epochs=fast_cpe_config.n_epochs)


def make_profile(worker_id: str = "w-0", accuracies=None, counts=None) -> WorkerProfile:
    """Helper used across test modules to build simple profiles."""
    accuracies = accuracies if accuracies is not None else {"a": 0.8, "b": 0.6}
    counts = counts if counts is not None else {domain: 10 for domain in accuracies}
    return WorkerProfile(worker_id=worker_id, accuracies=accuracies, task_counts=counts)


@pytest.fixture
def static_pool() -> WorkerPool:
    """Five static workers with strictly decreasing target accuracy."""
    workers = []
    for index, accuracy in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
        profile = make_profile(f"static-{index}", {"a": accuracy, "b": accuracy}, {"a": 10, "b": 10})
        workers.append(StaticWorker(profile, target_accuracy=accuracy))
    return WorkerPool(workers)


@pytest.fixture
def static_environment(static_pool) -> AnnotationEnvironment:
    """An environment over the static pool with a 100-task budget."""
    schedule = compute_budget(pool_size=len(static_pool), k=2, total_budget=100)
    task_bank = generate_task_bank("target", n_learning=120, n_working=30, rng=7)
    return AnnotationEnvironment(
        pool=static_pool,
        task_bank=task_bank,
        schedule=schedule,
        prior_domains=["a", "b"],
        rng=13,
        batch_size=5,
    )


@pytest.fixture
def learning_pool() -> WorkerPool:
    """Four learning workers whose final ranking differs from their initial one."""
    configs = [
        ("lw-0", 0.55, 0.05),  # decent start, slow learner
        ("lw-1", 0.50, 0.45),  # average start, fast learner -> best at the end
        ("lw-2", 0.62, 0.00),  # good start, no learning
        ("lw-3", 0.45, 0.10),  # weak start, modest learner
    ]
    workers = []
    for worker_id, initial, rate in configs:
        profile = make_profile(worker_id, {"a": initial + 0.1, "b": initial}, {"a": 10, "b": 10})
        workers.append(LearningWorker(profile, initial_accuracy=initial, learning_rate=rate))
    return WorkerPool(workers)
