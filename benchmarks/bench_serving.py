"""Serving-layer benchmark: routing throughput and aggregation latency.

Times the two serving hot paths in isolation:

* **routing** — ``route()`` + load release per policy (``round_robin``,
  ``least_loaded``, ``domain_affinity``) across pool sizes up to 100k
  workers, reported as routed tasks/second;
* **aggregation** — per-answer ``add()`` latency of the streaming
  majority vote and the incremental Dawid-Skene, plus the cost of the
  exact EM replay (``converge``);
* **telemetry overhead** — the routing loop timed with telemetry off and
  on (interleaved arms, best of repeats), reported as the percent of
  routed-tasks/s the instrumentation costs.  Passing
  ``--max-overhead-pct`` turns the worst measured cell into a regression
  gate, which is how CI pins the "near-zero-overhead" telemetry claim
  (the acceptance bar is <= 3% at 10k workers).

Besides raw cells the payload carries per-policy **throughput-flatness
ratios** (min/max tasks-per-second across the benched pool sizes — 1.0 is
perfectly flat, the pre-index ``domain_affinity`` measured ~0.08) and the
``domain_affinity``/``least_loaded`` throughput ratio per size.  Passing
``--min-affinity-ratio`` turns the largest-pool ratio into a regression
gate: the run exits non-zero when indexed affinity routing falls below
that fraction of the heap router, which is how CI pins the index's
complexity class.

Run it as a script (the pytest suite does not collect it):

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py \
        --pool-sizes 640 10000 100000 --tasks 1000000 --output /tmp/bench.json

The machine-readable output seeds the repo's perf trajectory
(``BENCH_serving.json``); the schema is stamped into the payload as
``schema_version``.  The repo's acceptance bars: >= 10k routed tasks/sec
for ``least_loaded`` on a 640-worker pool, ``domain_affinity`` flat
within 10% across 640 -> 10k -> 100k workers and within 2x of
``least_loaded`` at every size.
"""


from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from conftest import assert_bench_environment, bench_environment
from repro.obs.timing import perf_counter
from repro.serving.aggregation import IncrementalDawidSkene, OnlineMajorityVote
from repro.serving.pool import ServingPool, ServingWorker
from repro.serving.qualification import DomainQualification, QualificationTier
from repro.serving.routing import make_router, router_names

SCHEMA_VERSION = 5

DEFAULT_POOL_SIZES = (40, 160, 640, 10_000, 100_000)
#: Pool sizes the telemetry on/off arms are compared at.
DEFAULT_OVERHEAD_POOL_SIZES = (10_000,)
#: Routing policy the telemetry overhead is measured on.
OVERHEAD_POLICY = "least_loaded"
DEFAULT_DOMAIN = "target"
#: Fraction of workers landing in the fallback tier, so tier filtering is
#: exercised instead of idled.
FALLBACK_FRACTION = 0.2


def build_pool(n_workers: int, seed: int = 0, max_concurrent: int = 8) -> ServingPool:
    """A synthetic serving pool with mixed qualification tiers."""
    rng = np.random.default_rng(seed)
    estimates = np.clip(rng.normal(0.75, 0.1, size=n_workers), 0.05, 0.95)
    fallback = rng.uniform(size=n_workers) < FALLBACK_FRACTION
    workers: List[ServingWorker] = []
    for index in range(n_workers):
        worker_id = f"w{index:06d}"
        tier = QualificationTier.FALLBACK if fallback[index] else QualificationTier.QUALIFIED
        qualification = DomainQualification(
            worker_id=worker_id,
            domain=DEFAULT_DOMAIN,
            estimate=float(estimates[index]),
            questions=20,
            tier=tier,
        )
        workers.append(
            ServingWorker(
                worker_id=worker_id,
                qualifications={DEFAULT_DOMAIN: qualification},
                max_concurrent=max_concurrent,
            )
        )
    return ServingPool(workers)


def time_routing(
    policy: str,
    n_workers: int,
    n_tasks: int,
    votes: int,
    repeats: int,
) -> Dict[str, float]:
    """Best-of-``repeats`` routing throughput of one policy on one pool size."""
    times: List[float] = []
    for repeat in range(repeats):
        pool = build_pool(n_workers, seed=repeat)
        router = make_router(policy, pool)
        # Freeze the pool's object graph out of the generational collector:
        # at 100k workers the periodic gen2 scans over construction garbage
        # otherwise dominate the timing and masquerade as a routing cliff.
        gc.collect()
        gc.freeze()
        start = perf_counter()
        for _ in range(n_tasks):
            chosen = router.route(DEFAULT_DOMAIN, votes)
            for worker_id in chosen:
                pool.complete_assignment(worker_id)
        times.append(perf_counter() - start)
        gc.unfreeze()
    best = min(times)
    return {
        "route_s": best,
        "n_tasks": n_tasks,
        "tasks_per_second": n_tasks / best if best > 0 else float("inf"),
    }


def time_telemetry_overhead(
    n_workers: int, n_tasks: int, votes: int, repeats: int
) -> Dict[str, float]:
    """Routing throughput with telemetry off vs on, interleaved arms.

    Both arms run the identical loop; the "on" arm binds a live
    :class:`repro.obs.Telemetry` to the router first, so the measured gap
    is exactly the per-route counter/latency-sampling cost.  Arms are
    interleaved within each repeat and the best time per arm is kept, so
    ambient machine noise hits both sides alike.
    """
    from repro.obs import create_telemetry

    times: Dict[str, List[float]] = {"off": [], "on": []}
    for repeat in range(repeats):
        for arm in ("off", "on"):
            pool = build_pool(n_workers, seed=repeat)
            router = make_router(OVERHEAD_POLICY, pool)
            if arm == "on":
                router.bind_telemetry(create_telemetry())
            gc.collect()
            gc.freeze()
            start = perf_counter()
            for _ in range(n_tasks):
                chosen = router.route(DEFAULT_DOMAIN, votes)
                for worker_id in chosen:
                    pool.complete_assignment(worker_id)
            times[arm].append(perf_counter() - start)
            gc.unfreeze()
    off_s, on_s = min(times["off"]), min(times["on"])
    off_tps = n_tasks / off_s if off_s > 0 else float("inf")
    on_tps = n_tasks / on_s if on_s > 0 else float("inf")
    return {
        "pool_size": n_workers,
        "n_tasks": n_tasks,
        "off_tasks_per_second": off_tps,
        "on_tasks_per_second": on_tps,
        "overhead_pct": 100.0 * (off_tps - on_tps) / off_tps if off_tps > 0 else 0.0,
    }


def time_aggregation(n_answers: int, n_tasks: int, n_workers: int, seed: int = 0) -> Dict[str, float]:
    """Per-answer latency of the streaming aggregators on one synthetic stream."""
    rng = np.random.default_rng(seed)
    tasks = rng.integers(n_tasks, size=n_answers)
    workers = rng.integers(n_workers, size=n_answers)
    answers = rng.uniform(size=n_answers) < 0.7
    # Deduplicate (worker, task) pairs — the DS aggregator rejects repeats.
    seen = set()
    stream = []
    for t, w, a in zip(tasks, workers, answers):
        if (int(w), int(t)) in seen:
            continue
        seen.add((int(w), int(t)))
        stream.append((f"t{t:05d}", f"w{w:06d}", bool(a)))

    majority = OnlineMajorityVote()
    start = perf_counter()
    for task_id, worker_id, answer in stream:
        majority.add(task_id, worker_id, answer)
    majority_s = perf_counter() - start

    dawid_skene = IncrementalDawidSkene()
    start = perf_counter()
    for task_id, worker_id, answer in stream:
        dawid_skene.add(task_id, worker_id, answer)
    dawid_skene_s = perf_counter() - start

    start = perf_counter()
    dawid_skene.converge()
    converge_s = perf_counter() - start

    n = len(stream)
    return {
        "n_answers": n,
        "majority_us_per_answer": 1e6 * majority_s / n,
        "dawid_skene_us_per_answer": 1e6 * dawid_skene_s / n,
        "converge_s": converge_s,
        "answers_per_second_dawid_skene": n / dawid_skene_s if dawid_skene_s > 0 else float("inf"),
    }


def _flatness(cells: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per policy: min/max throughput across pool sizes and their ratio."""
    grouped: Dict[str, List[float]] = {}
    for cell in cells:
        grouped.setdefault(str(cell["policy"]), []).append(float(cell["tasks_per_second"]))
    return {
        key: {
            "min_tasks_per_second": min(values),
            "max_tasks_per_second": max(values),
            "flatness_ratio": min(values) / max(values) if max(values) > 0 else 0.0,
        }
        for key, values in grouped.items()
    }


def _affinity_ratios(cells: List[Dict[str, object]]) -> Dict[str, object]:
    """Indexed-affinity throughput as a fraction of least_loaded, per pool size."""
    by_size: Dict[int, Dict[str, float]] = {}
    for cell in cells:
        by_size.setdefault(int(cell["pool_size"]), {})[str(cell["policy"])] = float(
            cell["tasks_per_second"]
        )
    ratios: Dict[str, float] = {}
    for size in sorted(by_size):
        policies = by_size[size]
        if "domain_affinity" in policies and "least_loaded" in policies and policies["least_loaded"] > 0:
            ratios[str(size)] = policies["domain_affinity"] / policies["least_loaded"]
    largest = max((int(size) for size in ratios), default=None)
    return {
        "per_pool_size": ratios,
        "at_largest_pool": ratios[str(largest)] if largest is not None else None,
        "largest_pool_size": largest,
    }


def run_benchmark(
    pool_sizes: Sequence[int],
    n_tasks: int,
    votes: int,
    repeats: int,
    n_answers: int,
    overhead_pool_sizes: Sequence[int] = DEFAULT_OVERHEAD_POOL_SIZES,
) -> Dict[str, object]:
    """The full benchmark payload."""
    routing: List[Dict[str, object]] = []
    for policy in router_names():
        for n_workers in pool_sizes:
            result = time_routing(policy, n_workers, n_tasks, votes, repeats)
            routing.append({"policy": policy, "pool_size": n_workers, **result})
            print(
                f"  {policy:>16} pool={n_workers:<6} "
                f"{result['tasks_per_second']:>12,.0f} tasks/s",
                file=sys.stderr,
            )
    overhead_cells: List[Dict[str, object]] = []
    for n_workers in overhead_pool_sizes:
        cell = time_telemetry_overhead(n_workers, n_tasks, votes, repeats)
        overhead_cells.append(cell)
        print(
            f"  telemetry overhead pool={n_workers:<6} "
            f"off {cell['off_tasks_per_second']:>12,.0f} tasks/s, "
            f"on {cell['on_tasks_per_second']:>12,.0f} tasks/s "
            f"({cell['overhead_pct']:+.2f}%)",
            file=sys.stderr,
        )
    aggregation = time_aggregation(n_answers, n_tasks=max(n_answers // 5, 1), n_workers=max(pool_sizes))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "pool_sizes": list(pool_sizes),
            "n_tasks": n_tasks,
            "votes_per_task": votes,
            "repeats": repeats,
            "n_answers": n_answers,
            "overhead_pool_sizes": list(overhead_pool_sizes),
        },
        "environment": bench_environment(),
        "routing": routing,
        "throughput_flatness": _flatness(routing),
        "affinity_vs_least_loaded": _affinity_ratios(routing),
        "telemetry_overhead": {
            "policy": OVERHEAD_POLICY,
            "cells": overhead_cells,
            "max_overhead_pct": max(float(cell["overhead_pct"]) for cell in overhead_cells),
        },
        "aggregation": aggregation,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pool-sizes", type=int, nargs="+", default=list(DEFAULT_POOL_SIZES))
    parser.add_argument("--tasks", type=int, default=20_000, help="tasks routed per (policy, pool) cell")
    parser.add_argument("--votes", type=int, default=3, help="workers per task")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best is kept)")
    parser.add_argument("--answers", type=int, default=50_000, help="answers streamed into the aggregators")
    parser.add_argument(
        "--min-affinity-ratio",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "regression gate: exit non-zero when indexed domain_affinity throughput "
            "at the largest benched pool is below this fraction of least_loaded"
        ),
    )
    parser.add_argument(
        "--overhead-pools",
        type=int,
        nargs="+",
        default=list(DEFAULT_OVERHEAD_POOL_SIZES),
        help="pool sizes for the telemetry on/off overhead cells (default 10000)",
    )
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "regression gate: exit non-zero when enabled-telemetry routing "
            "throughput loses more than this percentage in any overhead cell"
        ),
    )
    parser.add_argument("--output", default="BENCH_serving.json", help="JSON output path")
    args = parser.parse_args(argv)

    payload = run_benchmark(
        pool_sizes=args.pool_sizes,
        n_tasks=args.tasks,
        votes=args.votes,
        repeats=args.repeats,
        n_answers=args.answers,
        overhead_pool_sizes=args.overhead_pools,
    )
    assert_bench_environment(payload)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if args.min_affinity_ratio is not None:
        ratios = payload["affinity_vs_least_loaded"]
        ratio = ratios["at_largest_pool"]  # type: ignore[index]
        if ratio is None:
            print("regression gate: no affinity/least_loaded ratio measured", file=sys.stderr)
            return 1
        if ratio < args.min_affinity_ratio:
            print(
                f"regression gate FAILED: domain_affinity at pool "
                f"{ratios['largest_pool_size']} runs at {ratio:.3f}x least_loaded "  # type: ignore[index]
                f"(minimum {args.min_affinity_ratio})",
                file=sys.stderr,
            )
            return 1
        print(
            f"regression gate passed: affinity/least_loaded ratio {ratio:.3f} "
            f">= {args.min_affinity_ratio}",
            file=sys.stderr,
        )
    if args.max_overhead_pct is not None:
        overhead = payload["telemetry_overhead"]
        worst = overhead["max_overhead_pct"]  # type: ignore[index]
        if worst > args.max_overhead_pct:
            print(
                f"regression gate FAILED: telemetry overhead {worst:.2f}% "
                f"exceeds maximum {args.max_overhead_pct}%",
                file=sys.stderr,
            )
            return 1
        print(
            f"regression gate passed: telemetry overhead {worst:.2f}% "
            f"<= {args.max_overhead_pct}%",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
