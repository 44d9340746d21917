"""Experiment-runner benchmark: serial vs sharded-parallel wall clock.

The comparison grid behind Tables IV–V and Figures 5–7 decomposes into
independent ``(dataset, method, repetition, k, q)`` work units; this
benchmark times the same tiny Table V grid at several ``n_jobs`` settings
and records the speedup over the serial run.  It doubles as a correctness
probe: for every job count the aggregated accuracies, precisions and
ground truths are compared bit-for-bit against the serial baseline.

Run it as a script (the pytest suite does not collect it):

    PYTHONPATH=src python benchmarks/bench_runner.py
    PYTHONPATH=src python benchmarks/bench_runner.py \
        --datasets S-1 --repetitions 2 --epochs 5 --jobs 1 2 \
        --output /tmp/bench.json

The machine-readable output extends the repo's perf trajectory
(``BENCH_runner.json``); its schema is documented in the README's
"Parallel experiment execution" section and stamped into the payload as
``schema_version``.  ``environment.cpu_count``
matters when reading the numbers: process sharding cannot beat serial on a
single-core host, so speedups there sit at ~1x regardless of ``n_jobs``.
"""


from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from conftest import assert_bench_environment, bench_environment
from repro.config import METHOD_ORDER, ExperimentConfig
from repro.experiments.runner import DatasetResult, plan_work_units, run_method_comparison
from repro.obs.timing import perf_counter

SCHEMA_VERSION = 1

DEFAULT_DATASETS = ("S-1",)
DEFAULT_JOBS = (1, 2, 4, 8)
DEFAULT_REPETITIONS = 4


def _comparable(results: Dict[str, DatasetResult]) -> Dict[str, object]:
    """The deterministic projection of a run (runtimes are wall clock, excluded)."""
    return {
        name: (result.k, result.tasks_per_batch, result.method_accuracies,
               result.method_precisions, result.ground_truths)
        for name, result in results.items()
    }


def run_benchmark(
    datasets: Sequence[str],
    jobs: Sequence[int],
    n_repetitions: int = DEFAULT_REPETITIONS,
    cpe_epochs: int = 50,
    base_seed: int = 7,
    methods: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Time the tiny comparison grid at each job count and assemble the payload."""
    config = ExperimentConfig(n_repetitions=n_repetitions, base_seed=base_seed, cpe_epochs=cpe_epochs)
    methods = list(methods) if methods is not None else list(METHOD_ORDER)
    n_units = len(plan_work_units(datasets, config=config, methods=methods))
    print(f"grid: {list(datasets)} x {methods} x {n_repetitions} reps = {n_units} work units")

    serial_wall: Optional[float] = None
    serial_projection: Optional[Dict[str, object]] = None
    results: List[Dict[str, object]] = []
    for n_jobs in jobs:
        start = perf_counter()
        run = run_method_comparison(datasets, config=config, methods=methods, n_jobs=n_jobs)
        wall = perf_counter() - start
        projection = _comparable(run)
        if serial_wall is None:
            serial_wall, serial_projection = wall, projection
        row: Dict[str, object] = {
            "n_jobs": int(n_jobs),
            "wall_s": wall,
            "speedup": serial_wall / wall,
            "identical_to_serial": projection == serial_projection,
        }
        results.append(row)
        print(
            f"  n_jobs={n_jobs:>2} | wall {row['wall_s']:.3f}s | "
            f"speedup {row['speedup']:.2f}x | "
            f"identical_to_serial {row['identical_to_serial']}"
        )
        if not row["identical_to_serial"]:
            raise AssertionError(f"n_jobs={n_jobs} diverged from the serial run")
    return {
        "benchmark": "runner",
        "schema_version": SCHEMA_VERSION,
        "config": {
            "datasets": list(datasets),
            "methods": methods,
            "n_repetitions": n_repetitions,
            "cpe_epochs": cpe_epochs,
            "base_seed": base_seed,
            "n_work_units": n_units,
        },
        "environment": bench_environment(),
        "results": results,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=list(DEFAULT_DATASETS),
        metavar="NAME",
        help=f"datasets in the grid (default: {' '.join(DEFAULT_DATASETS)})",
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="NAME",
        help="methods in the grid (default: the full Table V roster)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=list(DEFAULT_JOBS),
        help=f"n_jobs settings to time (default: {' '.join(map(str, DEFAULT_JOBS))}); the first is the baseline",
    )
    parser.add_argument(
        "--repetitions", type=int, default=DEFAULT_REPETITIONS, help="repetitions per cell (default 4)"
    )
    parser.add_argument("--epochs", type=int, default=50, help="CPE gradient epochs (paper: 50)")
    parser.add_argument("--seed", type=int, default=7, help="base random seed (default 7)")
    parser.add_argument(
        "--output",
        default="BENCH_runner.json",
        help="path of the machine-readable result (default: BENCH_runner.json)",
    )
    args = parser.parse_args(argv)

    print(f"experiment-runner benchmark — jobs={args.jobs}, cpu_count={os.cpu_count()}")
    payload = run_benchmark(
        args.datasets,
        args.jobs,
        n_repetitions=args.repetitions,
        cpe_epochs=args.epochs,
        base_seed=args.seed,
        methods=args.methods,
    )
    assert_bench_environment(payload)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
