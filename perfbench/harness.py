"""Run workload units for a fixed time and turn them into metrics.

Untraced runs (``--trace 0``) give the end-to-end metrics.  Traced runs
(``--trace 1``) first run units untraced — interleaved with a telemetry-on
arm where the workload has telemetry — then the first units again with the
span wrappers installed, and report the per-layer breakdown.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from perfbench.layers import per_layer_metrics
from perfbench.spans import Tracer
from perfbench.workloads import UnitResult, unit_seed

#: Units every run completes whatever its time budget: the accuracy and the
#: digest cover exactly these, so both are a pure function of the seed.
MIN_UNITS = 5

#: Units a traced run repeats under the span wrappers.
TRACED_UNITS = 2

#: Workloads with a telemetry bundle to switch on.
TELEMETRY_WORKLOADS = ("serve", "market")

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("accuracy", "ratio"),
)


@dataclass
class RunOutcome:
    """Everything one benchmark invocation measured."""

    units: List[UnitResult]
    metrics: Dict[str, Tuple[float, str]]
    digest: str
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    @property
    def attempted(self) -> int:
        return sum(unit.attempted for unit in self.units)

    @property
    def failed(self) -> int:
        return sum(unit.failed for unit in self.units)


def run_unit(workload, seed: int, unit: int, telemetry: bool = False, tracer: Optional[Tracer] = None) -> UnitResult:
    """Set up and run one unit; set-up is timed on its own."""
    gc.collect()
    start = perf_counter()
    state = workload.setup(unit_seed(seed, workload.name, unit), telemetry=telemetry)
    setup_s = perf_counter() - start
    result = workload.run(state, tracer)
    result.setup_s = setup_s
    result.wall_s = perf_counter() - start
    return result


def run_units(workload, seed: int, seconds: float, min_units: int = MIN_UNITS) -> List[UnitResult]:
    """Units 0, 1, ... until ``seconds`` have passed and ``min_units`` are done."""
    results: List[UnitResult] = []
    start = perf_counter()
    while len(results) < min_units or perf_counter() - start < seconds:
        results.append(run_unit(workload, seed, len(results)))
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _combined_digest(units: List[UnitResult], count: int) -> str:
    return hashlib.sha256("".join(unit.digest for unit in units[:count]).encode("ascii")).hexdigest()


def _unit_checks(units: List[UnitResult]) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    for unit in units:
        for name, ok in unit.checks.items():
            checks[name] = checks.get(name, True) and ok
    return checks


def lower_quartile(values: Iterable[float]) -> float:
    """The 25th percentile: host interference only ever slows a unit down."""
    return float(np.quantile(np.fromiter(values, dtype=float), 0.25))


def unit_time(units: List[UnitResult]) -> float:
    """A unit's timed work, part by part: the lower quartile of each part over ``units``."""
    return sum(lower_quartile(parts) for parts in zip(*(unit.segments for unit in units)))


def end_to_end(units: List[UnitResult], min_units: int = MIN_UNITS) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced run.

    Timings take the lower quartile over units.  Interference from other
    tenants of the host only ever slows a unit, so the lower quartile tracks
    the program's own speed while still resting on a quarter of the units.
    Throughput divides a unit's ops by the sum of per-part lower quartiles
    (each timed part of a unit, such as one campaign or one block of tasks,
    is taken over the run's units); latency percentiles are taken per unit
    first.
    """

    def latency_ms(q: float) -> float:
        return 1000.0 * lower_quartile(float(np.percentile(unit.latencies, q)) for unit in units)

    values = {
        "setup_s": lower_quartile(unit.setup_s for unit in units),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": median(unit.ops for unit in units) / unit_time(units),
        "op_p50_ms": latency_ms(50),
        "op_p90_ms": latency_ms(90),
        "accuracy": float(np.mean([unit.accuracy for unit in units[:min_units]])),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def write_units(units: List[UnitResult], path: Path) -> None:
    """Write each unit's raw timings, so other estimators can be computed later."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        {
            "setup_s": unit.setup_s,
            "wall_s": unit.wall_s,
            "segments": unit.segments,
            "latency_s": {str(q): float(np.percentile(unit.latencies, q)) for q in (50, 90, 99)},
            "accuracy": unit.accuracy,
            "named": unit.named,
            "digest": unit.digest,
        }
        for unit in units
    ]
    path.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def measure(
    workload, seed: int, seconds: float, min_units: int = MIN_UNITS, units_path: Optional[Path] = None
) -> RunOutcome:
    """An untraced run: end-to-end metrics, digest and checks."""
    units = run_units(workload, seed, seconds, min_units)
    if units_path is not None:
        write_units(units, units_path)
    return RunOutcome(
        units=units,
        metrics=end_to_end(units, min_units),
        digest=_combined_digest(units, min_units),
        checks=_unit_checks(units),
    )


def measure_traced(
    workload, seed: int, seconds: float, spans_path: Optional[Path] = None, min_units: int = MIN_UNITS
) -> Tuple[RunOutcome, Tracer]:
    """A traced run: per-layer metrics, tracing and telemetry overhead, checks.

    The first half of the time (and at least ``min_units`` units) runs
    untraced, each unit followed by its telemetry-on twin where the workload
    has telemetry; then the first ``TRACED_UNITS`` units run again traced.
    Overheads compare :func:`unit_time` of the arms over the same units, and
    every arm must reproduce the untraced digest of its unit.
    """
    telemetry_arm = workload.name in TELEMETRY_WORKLOADS
    plain: List[UnitResult] = []
    telemetry: List[UnitResult] = []
    start = perf_counter()
    while len(plain) < min_units or perf_counter() - start < seconds / 2:
        plain.append(run_unit(workload, seed, len(plain)))
        if telemetry_arm:
            telemetry.append(run_unit(workload, seed, len(telemetry), telemetry=True))
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_unit(workload, seed, unit, tracer=tracer) for unit in range(min(TRACED_UNITS, len(plain)))]
    finally:
        tracer.uninstall()
    values = tracer.summary(sum(unit.wall_s for unit in traced))
    values["trace.overhead_pct"] = 100.0 * (unit_time(traced) / unit_time(plain[: len(traced)]) - 1.0)
    values["obs.telemetry.overhead_pct"] = (
        100.0 * (unit_time(telemetry) / unit_time(plain) - 1.0) if telemetry_arm else 0.0
    )
    checks = _unit_checks(plain + telemetry + traced)
    checks["telemetry_inert"] = all(t.digest == p.digest for t, p in zip(telemetry, plain))
    checks["tracing_inert"] = all(t.digest == p.digest for t, p in zip(traced, plain))
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = {name: (float(values[name]), unit) for name, unit, _ in per_layer_metrics()}
    outcome = RunOutcome(
        units=plain,
        metrics=metrics,
        digest=_combined_digest(plain, min_units),
        checks=checks,
    )
    return outcome, tracer
