"""The layer map: which public calls the traced run wraps, and what each layer should move.

One table drives the wrappers :mod:`perfbench.spans` installs and the
per-layer metric names the traced run reports (and ``BENCHMARK.json``
lists).  Which end-to-end metric each layer should move, on which workload,
is the layer map in ``perfbench/README.md``.

Per-layer metric names are ``<layer>.<function>.<stat>`` with ``stat`` one
of ``calls`` (spans recorded), ``busy_s`` (summed span duration, only for
functions that have wrapped callees), ``self_s`` (duration minus wrapped
children) and ``share`` (self time as a fraction of the traced wall time).
``<layer>.share`` is the layer's summed self time over the traced wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped public call: ``<module>.<owner>.<method>``, reported as ``function``."""

    module: str
    owner: str
    method: str
    function: str
    #: Whether the call has wrapped callees, so ``busy_s`` differs from ``self_s``.
    nested: bool = False
    #: Positional argument (``self`` is 0) that carries the op id (a tick), if any.
    op_arg: int = -1


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]
    #: Derived counts, as ``(stat name, unit, better)``.
    derived: Tuple[Tuple[str, str, str], ...]


def _t(module: str, owner: str, method: str, function: str = "", nested: bool = False, op_arg: int = -1) -> Target:
    return Target(module, owner, method, function or method, nested, op_arg)


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "campaign",
        (
            _t("repro.campaign", "Campaign", "step", nested=True),
            _t("repro.campaign", "Campaign", "from_state_dict", nested=True),
        ),
        (),
    ),
    Layer(
        "core.lge",
        (
            _t("repro.core.lge", "LearningGainEstimator", "estimate", nested=True),
            _t("repro.core.lge", "LearningGainEstimator", "fit_worker"),
        ),
        (),
    ),
    Layer(
        "core.cpe",
        (
            _t("repro.core.cpe", "CrossDomainPerformanceEstimator", "update"),
            _t("repro.core.cpe", "CrossDomainPerformanceEstimator", "predict"),
        ),
        (),
    ),
    Layer(
        "platform.session",
        (_t("repro.platform.session", "AnnotationEnvironment", "run_learning_round"),),
        (("answers_simulated", "count", "lower"),),
    ),
    Layer(
        "serving.service",
        (
            _t("repro.serving.service", "AnnotationService", "submit", nested=True),
            _t("repro.serving.service", "AnnotationService", "record_answer", nested=True),
            _t("repro.serving.service", "AnnotationService", "invalidate_worker", nested=True),
            _t("repro.serving.service", "AnnotationService", "finalize_ready", nested=True),
            _t("repro.serving.service", "AnnotationService", "report", nested=True),
        ),
        (),
    ),
    Layer(
        "serving.routing",
        (
            _t("repro.serving.routing", "BaseRouter", "route", nested=True),
            _t("repro.serving.routing", "BaseRouter", "route_excluding", nested=True),
            _t("repro.serving.routing", "DomainAffinityRouter", "route_excluding", nested=True),
        ),
        (
            ("votes_requested", "count", "lower"),
            ("votes_assigned", "count", "higher"),
            ("fill_ratio", "ratio", "higher"),
            ("candidates_per_route", "count", "lower"),
        ),
    ),
    Layer(
        "serving.index",
        (
            _t("repro.serving.index", "DomainIndexSet", "on_load_changed"),
            _t("repro.serving.index", "DomainIndexSet", "on_qualification_changed"),
            _t("repro.serving.index", "DomainIndexSet", "on_worker_added"),
            _t("repro.serving.index", "DomainIndexSet", "on_worker_removed"),
        ),
        (),
    ),
    Layer(
        "serving.pool",
        (
            _t("repro.serving.pool", "ServingPool", "begin_assignment"),
            _t("repro.serving.pool", "ServingPool", "complete_assignment"),
            _t("repro.serving.pool", "ServingPool", "release_assignment"),
            _t("repro.serving.pool", "ServingPool", "demote", nested=True),
            _t("repro.serving.pool", "ServingPool", "add_worker", nested=True),
            _t("repro.serving.pool", "ServingPool", "remove_worker", nested=True),
        ),
        (),
    ),
    Layer(
        "serving.aggregation",
        (
            _t("repro.serving.aggregation", "IncrementalDawidSkene", "add", "dawid_skene.add"),
            _t("repro.serving.aggregation", "IncrementalDawidSkene", "converge", "dawid_skene.converge"),
            _t("repro.serving.aggregation", "OnlineMajorityVote", "add", "majority.add"),
        ),
        (),
    ),
    Layer(
        "serving.quality",
        (_t("repro.serving.quality", "QualityTracker", "observe"),),
        (("drift_events", "count", "lower"),),
    ),
    Layer(
        "marketplace.lifecycle",
        (_t("repro.marketplace.lifecycle", "CampaignHandle", "step", nested=True, op_arg=1),),
        (("stalled_ticks", "count", "lower"),),
    ),
    Layer(
        "marketplace.orchestrator",
        (
            _t("repro.marketplace.orchestrator", "Marketplace", "answer"),
            _t("repro.marketplace.orchestrator", "Marketplace", "admit_arrivals", nested=True, op_arg=1),
            _t("repro.marketplace.orchestrator", "Marketplace", "depart", nested=True, op_arg=2),
            _t("repro.marketplace.orchestrator", "Marketplace", "requalify", nested=True),
        ),
        (
            ("arrivals", "count", "lower"),
            ("admitted_ratio", "ratio", "higher"),
        ),
    ),
    Layer(
        "marketplace.churn",
        (
            _t("repro.marketplace.churn", "ChurnModel", "departures_among", op_arg=2),
            _t("repro.marketplace.churn", "ChurnModel", "arrivals_at", op_arg=1),
        ),
        (),
    ),
    Layer(
        "marketplace.journal",
        (
            _t("repro.marketplace.journal", "EventJournal", "append_ticks"),
            _t("repro.marketplace.journal", "EventJournal", "check_fingerprint", nested=True),
            _t("repro.marketplace.journal", "EventJournal", "read"),
        ),
        (("append_bytes", "B", "lower"),),
    ),
)

#: Per-function shares reported besides the layer totals (the ones the
#: workload notes size explicitly).
FUNCTION_SHARES = (("marketplace.orchestrator", "answer"),)

#: Trace-wide metrics: tracing cost, span coverage of the wall, telemetry cost.
GLOBAL_METRICS = (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.covered_share", "ratio", "higher"),
    ("obs.telemetry.overhead_pct", "%", "lower"),
)


def functions(layer: Layer) -> List[Target]:
    """The layer's targets with one entry per reported function name."""
    seen = {}
    for target in layer.targets:
        seen.setdefault(target.function, target)
    return list(seen.values())


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    metrics: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        for target in functions(layer):
            prefix = f"{layer.name}.{target.function}"
            metrics.append((f"{prefix}.calls", "count", "lower"))
            if target.nested:
                metrics.append((f"{prefix}.busy_s", "s", "lower"))
            metrics.append((f"{prefix}.self_s", "s", "lower"))
        metrics.append((f"{layer.name}.share", "ratio", "lower"))
        for stat, unit, better in layer.derived:
            metrics.append((f"{layer.name}.{stat}", unit, better))
    for layer_name, function in FUNCTION_SHARES:
        metrics.append((f"{layer_name}.{function}.share", "ratio", "lower"))
    metrics.extend(GLOBAL_METRICS)
    return metrics
