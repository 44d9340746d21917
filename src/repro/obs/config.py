"""Telemetry configuration and the runtime bundle it builds.

``TelemetryConfig`` is deliberately **not** part of ``ServingConfig`` or
``MarketplaceConfig``: those configs are fingerprinted into traces and
journal headers, and turning telemetry on or off must never change a
run's observable outputs.  Instrumented constructors instead take a
separate ``telemetry=`` argument carrying a :class:`Telemetry` bundle.
``telemetry=None`` is the one off switch: it costs one ``is None`` check
at construction time and nothing per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceRecorder


@dataclass(frozen=True)
class TelemetryConfig:
    """What a bundle collects besides metrics."""

    #: Record logical-clock trace spans (off: metrics only).
    trace: bool = False


class Telemetry:
    """Runtime bundle: one registry (+ optional tracer) per run.

    Build one per serving run / marketplace run and hand it to every
    instrumented constructor; all subsystems then share a single
    registry, so one ``snapshot()`` covers the whole run.
    """

    __slots__ = ("config", "registry", "tracer")

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry = MetricsRegistry()
        self.tracer = TraceRecorder() if self.config.trace else None

    def snapshot(self, include_volatile: bool = False) -> dict:
        return self.registry.snapshot(include_volatile=include_volatile)

    def snapshot_json(self, include_volatile: bool = False) -> str:
        return self.registry.snapshot_json(include_volatile=include_volatile)

    def exposition(self, include_volatile: bool = True) -> str:
        return self.registry.exposition(include_volatile=include_volatile)


def create_telemetry(*, trace: bool = False) -> Telemetry:
    """Convenience constructor used by the CLI and benchmarks."""
    return Telemetry(TelemetryConfig(trace=trace))


__all__ = ["TelemetryConfig", "Telemetry", "create_telemetry"]
