"""Deterministic metrics: counters, gauges, fixed-bound histograms.

The registry is built for two consumers at once:

* **Determinism tests** — :meth:`MetricsRegistry.snapshot` returns a
  schema-versioned dict whose every list is sorted (metric families by
  name, samples by label values, label maps by key), so
  ``snapshot_json()`` is byte-stable across runs and safe to assert on.
* **Hot paths** — ``family.labels(...)`` returns a cached child object
  with ``__slots__`` whose ``inc``/``observe`` is a single attribute
  bump, so instrumented code pre-binds children once and pays no dict
  lookup per event.

Metrics that depend on wall clock or on *execution shape* (e.g. journal
flush counts, which vary with ``tick_batch`` while the journal contents
do not) are registered with ``volatile=True`` and excluded from the
default snapshot; ``snapshot(include_volatile=True)`` opts back in.

Instrumented code declares its families with
:meth:`MetricsRegistry.metric`, which reads every shape field from the
row in :mod:`repro.obs.catalog`; ``counter``/``gauge``/``histogram``
remain the general primitives for metrics outside the catalog.  There is
no disabled registry: telemetry is off when a component gets
``telemetry=None``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.catalog import CATALOG_BY_NAME
from repro.obs.naming import validate_label_names, validate_metric_name

#: Version stamp on every snapshot payload; bump on shape changes.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bounds (seconds-ish scale, but unitless).
DEFAULT_HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    0.000001,
    0.00001,
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
)

Number = Union[int, float]


class CounterChild:
    """One (label-values) series of a counter; monotonically increasing."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount!r})")
        self.value += amount


class GaugeChild:
    """One (label-values) series of a gauge; settable to any number."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class HistogramChild:
    """One (label-values) series of a fixed-bound histogram."""

    __slots__ = ("bounds", "buckets", "count", "total")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        # One bucket per bound plus the +inf overflow bucket.
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total: Number = 0

    def observe(self, value: Number) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


_CHILD_TYPES = {
    "counter": CounterChild,
    "gauge": GaugeChild,
    "histogram": HistogramChild,
}


class Metric:
    """A metric family: a name/kind/help plus one child per label-values."""

    __slots__ = ("name", "kind", "help", "label_names", "volatile", "bounds", "_children", "_default")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...] = (),
        *,
        volatile: bool = False,
        bounds: Optional[Tuple[float, ...]] = None,
    ) -> None:
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = validate_metric_name(name)
        self.kind = kind
        self.help = help
        self.label_names = validate_label_names(tuple(label_names))
        self.volatile = volatile
        if kind == "histogram":
            bounds = tuple(bounds if bounds is not None else DEFAULT_HISTOGRAM_BOUNDS)
            if not bounds or list(bounds) != sorted(set(bounds)):
                raise ValueError(f"histogram bounds must be strictly increasing, got {bounds!r}")
            self.bounds = bounds
        else:
            if bounds is not None:
                raise ValueError(f"bounds only apply to histograms, not {kind!r}")
            self.bounds = None
        self._children: Dict[Tuple[str, ...], object] = {}
        # The label-less child, cached on first use so an untouched family
        # keeps no series (and stays out of snapshots).
        self._default: Optional[object] = None

    # ------------------------------------------------------------------ #
    # Child access
    # ------------------------------------------------------------------ #
    def labels(self, *values: str):
        """The child series for ``values`` (created on first use, cached)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.label_names)} label "
                f"value(s) {self.label_names!r}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = HistogramChild(self.bounds)
            else:
                child = _CHILD_TYPES[self.kind]()
            self._children[key] = child
        return child

    def _default_child(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled {self.label_names!r}; "
                "call .labels(...) first"
            )
        self._default = self.labels()
        return self._default

    # Convenience passthroughs for label-less families.
    def inc(self, amount: Number = 1) -> None:
        (self._default or self._default_child()).inc(amount)

    def dec(self, amount: Number = 1) -> None:
        (self._default or self._default_child()).dec(amount)

    def set(self, value: Number) -> None:
        (self._default or self._default_child()).set(value)

    def observe(self, value: Number) -> None:
        (self._default or self._default_child()).observe(value)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def samples(self) -> List[dict]:
        """Sorted, JSON-ready samples for this family."""
        out: List[dict] = []
        for key in sorted(self._children):
            child = self._children[key]
            labels = {name: value for name, value in zip(self.label_names, key)}
            if self.kind == "histogram":
                out.append(
                    {
                        "labels": labels,
                        "count": child.count,
                        "sum": child.total,
                        "buckets": [
                            {"le": bound, "count": count}
                            for bound, count in zip(
                                list(self.bounds) + ["+inf"], child.buckets
                            )
                        ],
                    }
                )
            else:
                out.append({"labels": labels, "value": child.value})
        return out


class MetricsRegistry:
    """Instrument factory + deterministic snapshot/exposition writer."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------ #
    # Factories (idempotent: re-declaring an identical metric returns it)
    # ------------------------------------------------------------------ #
    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Tuple[str, ...],
        volatile: bool,
        bounds: Optional[Tuple[float, ...]] = None,
    ) -> Metric:
        metric = Metric(name, kind, help, labels, volatile=volatile, bounds=bounds)
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if (
                existing.kind != metric.kind
                or existing.label_names != metric.label_names
                or existing.bounds != metric.bounds
            ):
                raise ValueError(
                    f"metric {metric.name!r} re-declared with a different "
                    f"kind/labels/bounds than its first registration"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def metric(self, name: str) -> Metric:
        """Declare the catalog family ``name`` with its catalogued shape."""
        spec = CATALOG_BY_NAME.get(name)
        if spec is None:
            raise KeyError(f"metric {name!r} is not in repro.obs.catalog.METRIC_CATALOG")
        return self._declare(spec.name, spec.kind, spec.help, spec.labels, spec.volatile, spec.bounds)

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        *,
        volatile: bool = False,
    ) -> Metric:
        return self._declare(name, "counter", help, labels, volatile)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        *,
        volatile: bool = False,
    ) -> Metric:
        return self._declare(name, "gauge", help, labels, volatile)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        *,
        volatile: bool = False,
        bounds: Optional[Tuple[float, ...]] = None,
    ) -> Metric:
        return self._declare(name, "histogram", help, labels, volatile, bounds)

    # ------------------------------------------------------------------ #
    # Introspection / export
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self, include_volatile: bool = False) -> dict:
        """Schema-versioned, fully sorted snapshot of every sample.

        Volatile metrics (wall-clock or execution-shape dependent) are
        excluded by default so the payload is byte-stable across runs.
        """
        metrics = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.volatile and not include_volatile:
                continue
            metrics.append(
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "labels": list(metric.label_names),
                    "volatile": metric.volatile,
                    "samples": metric.samples(),
                }
            )
        return {"schema_version": METRICS_SCHEMA_VERSION, "metrics": metrics}

    def snapshot_json(self, include_volatile: bool = False) -> str:
        """The snapshot as canonical (sorted-keys, compact) JSON text."""
        return json.dumps(
            self.snapshot(include_volatile=include_volatile),
            sort_keys=True,
            separators=(",", ":"),
        )

    def exposition(self, include_volatile: bool = True) -> str:
        """Prometheus-style text exposition (dots become underscores)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.volatile and not include_volatile:
                continue
            flat = metric.name.replace(".", "_")
            if metric.help:
                lines.append(f"# HELP {flat} {metric.help}")
            lines.append(f"# TYPE {flat} {metric.kind}")
            for sample in metric.samples():
                labelled = _format_labels(sample["labels"])
                if metric.kind == "histogram":
                    cumulative = 0
                    for bucket in sample["buckets"]:
                        cumulative += bucket["count"]
                        bucket_labels = _format_labels(dict(sample["labels"], le=bucket["le"]))
                        lines.append(f"{flat}_bucket{bucket_labels} {cumulative}")
                    lines.append(f"{flat}_sum{labelled} {sample['sum']}")
                    lines.append(f"{flat}_count{labelled} {sample['count']}")
                else:
                    lines.append(f"{flat}{labelled} {sample['value']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    parts = [f'{key}="{labels[key]}"' for key in sorted(labels)]
    return "{" + ",".join(parts) + "}"


__all__ = [
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_HISTOGRAM_BOUNDS",
    "CounterChild",
    "GaugeChild",
    "HistogramChild",
    "Metric",
    "MetricsRegistry",
]
