"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures, prints the
reproduced rows (run pytest with ``-s`` to see them) and records the key
numbers in ``benchmark.extra_info`` so they appear in the pytest-benchmark
JSON output.  Benchmarks run their workload exactly once
(``rounds=1, iterations=1``) — the interesting quantity is the reproduced
result, not a micro-timing distribution.
"""

from __future__ import annotations

import os
import platform
from typing import Callable, Dict

import pytest

from repro.config import ExperimentConfig

#: Configuration shared by the heavier table/figure benchmarks.
BENCH_CONFIG = ExperimentConfig(n_repetitions=2, base_seed=7)

#: Lighter configuration for the sweep benchmarks (figures).
SWEEP_CONFIG = ExperimentConfig(n_repetitions=1, base_seed=7)


def bench_environment(**extra: object) -> Dict[str, object]:
    """The environment block every benchmark payload records.

    ``cpu_count`` is mandatory: parallel cells (runner shards) are
    meaningless without knowing how many cores the numbers were taken on.
    Extra keyword pairs are merged on top.
    """
    import numpy as np

    environment: Dict[str, object] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    environment.update(extra)
    return environment


def assert_bench_environment(payload: Dict[str, object]) -> None:
    """Fail fast when a benchmark payload forgot the environment contract."""
    environment = payload.get("environment")
    if not isinstance(environment, dict) or not isinstance(environment.get("cpu_count"), int):
        raise AssertionError("benchmark payload must record environment.cpu_count")


def run_once(benchmark, func: Callable[[], object]) -> object:
    """Run ``func`` exactly once under the benchmark timer and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def record(benchmark, values: Dict[str, object]) -> None:
    """Attach reproduced numbers to the benchmark's extra-info block."""
    for key, value in values.items():
        benchmark.extra_info[key] = value


@pytest.fixture
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


@pytest.fixture
def sweep_config() -> ExperimentConfig:
    return SWEEP_CONFIG
