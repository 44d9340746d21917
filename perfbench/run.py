"""Run the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload select --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload again with span wrappers around every layer and reports the
per-layer metrics (spans are written to ``.perfbench_out/``).  ``all`` runs
every workload untraced and prints each one's metrics under the workload's
own names.  Run it from the root of a checkout: the program is imported from
``src/``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 15, "failed": 0,
     "metrics": {"ops_per_s": {"value": 1.07, "unit": "1/s"}, ...}}

The exit code is 1 when a correctness check fails and 2 when the program
source is missing.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before numpy is imported: the
# workloads are single-threaded and a threaded OpenBLAS on a small host adds
# contention noise, not speed.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "threads": {variable: os.environ[variable] for variable in THREAD_VARIABLES},
    }


def named_metrics(workload: str, outcome) -> list:
    """The workload's end-to-end metrics under its own names, as ``(name, value, unit)``."""
    import numpy as np

    from perfbench.harness import MIN_UNITS

    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    units = outcome.units

    def named(key: str) -> float:
        return median(unit.named[key] for unit in units)

    rows = [("setup_s", metrics["setup_s"], "s"), ("peak_rss_mb", metrics["peak_rss_mb"], "MB")]
    if workload == "select":
        rows += [
            ("campaigns_per_s", metrics["ops_per_s"], "1/s"),
            ("campaign_ms_p50", metrics["op_p50_ms"], "ms"),
            ("round_ms_p50", named("round_ms_p50"), "ms"),
            ("selected_accuracy", metrics["accuracy"], "ratio"),
            ("precision_at_k", mean(unit.named["precision_at_k"] for unit in units[:MIN_UNITS]), "ratio"),
        ]
    elif workload == "serve":
        rows += [
            ("tasks_per_s", metrics["ops_per_s"], "1/s"),
            ("submit_us_p50", 1000.0 * metrics["op_p50_ms"], "us"),
            ("submit_us_p90", 1000.0 * metrics["op_p90_ms"], "us"),
            ("submit_us_p99", 1e6 * median(np.percentile(unit.latencies, 99) for unit in units), "us"),
            ("label_accuracy", metrics["accuracy"], "ratio"),
            ("drift_demotions_per_unit", named("drift_demotions"), "count"),
        ]
    else:
        rows += [
            ("ticks_per_s", named("ticks_per_s"), "1/s"),
            ("resume_s", named("resume_s"), "s"),
            ("commit_ms_p50", metrics["op_p50_ms"], "ms"),
            ("label_accuracy", metrics["accuracy"], "ratio"),
        ]
    attempted, failed = outcome.attempted, outcome.failed
    rows += [
        ("ops", attempted, "count"),
        ("ops_failed", failed, "count"),
        ("failed_ratio", failed / attempted if attempted else 0.0, "ratio"),
    ]
    return rows


def print_outcome(workload: str, seed: int, outcome, trace: bool) -> None:
    print(f"workload {workload} seed {seed} units {len(outcome.units)} trace {int(trace)}")
    print(f"digest {outcome.digest}")
    for name, ok in sorted(outcome.checks.items()):
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    if not trace:
        for name, value, unit in named_metrics(workload, outcome):
            print(f"metric {workload}.{name} {value:.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("select", "serve", "market", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="time each workload runs units for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]

    from perfbench import harness
    from perfbench.workloads import WORKLOAD_NAMES, make_workload

    print("environment " + json.dumps(environment(), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.trace and args.workload == "all":
        parser.error("--trace 1 takes a single workload")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = make_workload(name, OUT_DIR)
        if args.trace:
            outcome, _ = harness.measure_traced(
                workload, args.seed, args.seconds, spans_path=OUT_DIR / f"spans-{name}.npz"
            )
        else:
            outcome = harness.measure(
                workload, args.seed, args.seconds, units_path=OUT_DIR / f"units-{name}-seed{args.seed}.json"
            )
        print_outcome(name, args.seed, outcome, bool(args.trace))
        correct &= outcome.correct
        attempted += outcome.attempted
        failed += outcome.failed
        if len(names) == 1:
            metrics = outcome.metrics
        else:
            metrics.update({f"{name}.{key}": value for key, value in outcome.metrics.items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
