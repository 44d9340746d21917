"""Deterministic telemetry: metrics, logical-clock traces, blessed timing.

The observability layer the serving and marketplace subsystems report
through:

``repro.obs.naming``
    One grammar for metric names (dotted lowercase), enforced at
    registration time and by analyzer rule O001.
``repro.obs.metrics``
    :class:`MetricsRegistry` — counters, gauges, fixed-bound histograms
    with sorted, schema-versioned, byte-stable snapshots.
``repro.obs.timing``
    The single module allowed to read the wall clock (the one D002
    waiver site in the tree).
``repro.obs.tracing``
    Logical-clock trace spans keyed by (tick, task, worker).
``repro.obs.config``
    :class:`TelemetryConfig` / :class:`Telemetry` — the runtime bundle
    instrumented constructors take as a separate ``telemetry=`` argument
    (never a field of the fingerprinted Serving/Marketplace configs).
``repro.obs.catalog``
    The static :data:`METRIC_CATALOG`, the one place a metric's kind,
    help, labels, volatility and bounds are written; instrumented code
    declares a family by name with ``registry.metric(name)``.
``repro.obs.listener``
    :class:`PoolMetricsListener` for the pool change-event bus.

Telemetry is opt-in and must be inert when off.  ``telemetry=None`` is
the one off switch: every instrumented path reduces to one ``is None``
check, and serving traces / marketplace journals stay byte-identical to
an uninstrumented run.
"""

from repro.obs.catalog import CATALOG_BY_NAME, METRIC_CATALOG, MetricSpec
from repro.obs.config import Telemetry, TelemetryConfig, create_telemetry
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.listener import PoolMetricsListener
from repro.obs.naming import metric_name, validate_metric_name
from repro.obs.tracing import TRACE_SCHEMA_VERSION, TraceRecorder

__all__ = [
    "CATALOG_BY_NAME",
    "METRIC_CATALOG",
    "MetricSpec",
    "Telemetry",
    "TelemetryConfig",
    "create_telemetry",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "PoolMetricsListener",
    "metric_name",
    "validate_metric_name",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
]
