"""Online per-worker quality tracking and drift detection.

During serving there is no gold label, so worker quality is tracked by
*agreement*: once a task's votes are aggregated, each participating
worker either agreed with the aggregate label or did not.  Per
``(worker, domain)`` stream the tracker maintains two exponentially
weighted moving averages of that agreement signal:

* a **fast** EWMA (``alpha``) tracking the worker's current quality;
* a **slow** EWMA (``baseline_alpha``) serving as the worker's adaptive
  baseline — a stable-but-mediocre worker converges to its own level and
  never alarms, while a *degrading* worker's fast EWMA falls away from
  the lagging baseline.

Drift is declared when, after a warm-up of ``min_observations`` answers
(whose plain mean seeds both averages), the fast EWMA falls below the
absolute floor ``demote_below`` **or** more than ``drop_tolerance``
below the baseline.  Each detection emits a :class:`DriftEvent`; the
serving loop demotes the worker's qualification one tier and, once
enough of the pool has drifted, raises the re-selection signal — the cue
to re-run the cross-domain selection campaign.  After an event the
baseline is reset to the degraded level, so escalating another tier
requires a *further* decay, not the same one re-detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class DriftConfig:
    """Tuning of the EWMA drift detector.

    Attributes
    ----------
    alpha:
        Fast-EWMA smoothing factor in ``(0, 1]``; the detection window is
        roughly ``1/alpha`` answers.
    baseline_alpha:
        Slow-EWMA smoothing factor; should be well below ``alpha`` so the
        baseline lags genuine degradation.
    min_observations:
        Warm-up answers per ``(worker, domain)`` before drift can fire;
        their mean seeds both averages.
    demote_below:
        Absolute fast-EWMA floor under which a worker is drifting
        regardless of its baseline.
    drop_tolerance:
        Maximum allowed drop of the fast EWMA below the baseline.
    cooldown:
        Answers to ignore on a stream directly after one of its drift
        events (gives the demoted worker a fresh window before the next
        escalation).
    """

    alpha: float = 0.05
    baseline_alpha: float = 0.01
    min_observations: int = 10
    demote_below: float = 0.35
    drop_tolerance: float = 0.3
    cooldown: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.baseline_alpha <= 1.0:
            raise ValueError("baseline_alpha must lie in (0, 1]")
        if self.baseline_alpha > self.alpha:
            raise ValueError("baseline_alpha must not exceed alpha (the baseline must lag)")
        if self.min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        if not 0.0 <= self.demote_below <= 1.0:
            raise ValueError("demote_below must lie in [0, 1]")
        if self.drop_tolerance < 0.0:
            raise ValueError("drop_tolerance must be non-negative")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


@dataclass(frozen=True)
class DriftEvent:
    """One drift detection on one ``(worker, domain)`` stream."""

    worker_id: str
    domain: str
    ewma: float
    baseline: float
    n_observations: int

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "worker_id": self.worker_id,
            "domain": self.domain,
            "ewma": self.ewma,
            "baseline": self.baseline,
            "n_observations": self.n_observations,
        }


@dataclass
class _Stream:
    """Mutable state of one ``(worker, domain)`` agreement stream."""

    count: int = 0
    warmup_sum: float = 0.0
    fast: Optional[float] = None
    slow: Optional[float] = None
    cooldown_remaining: int = 0
    events: int = 0


class QualityTracker:
    """Per-worker, per-domain EWMA agreement tracking with drift detection."""

    def __init__(self, config: Optional[DriftConfig] = None) -> None:
        self._config = config or DriftConfig()
        # Nested by worker first so one departure drops all of a worker's
        # streams in O(1) (see forget_worker) — under 100k-worker churn the
        # flat (worker, domain)-keyed layout grew without bound.
        self._streams: Dict[str, Dict[str, _Stream]] = {}
        self._events: List[DriftEvent] = []
        self._m_observations = None
        self._m_detections = None

    def bind_metrics(self, registry) -> None:
        """Attach observation/detection counters from a metrics registry."""
        self._m_observations = registry.metric("quality.observations")
        self._m_detections = registry.metric("quality.drift.detections")

    @property
    def config(self) -> DriftConfig:
        return self._config

    @property
    def events(self) -> List[DriftEvent]:
        """All drift events so far, in detection order (a copy)."""
        return list(self._events)

    def observe(self, worker_id: str, domain: str, agreed: bool) -> Optional[DriftEvent]:
        """Feed one agreement observation; returns a drift event if one fired."""
        stream = self._streams.setdefault(worker_id, {}).setdefault(domain, _Stream())
        config = self._config
        value = float(bool(agreed))
        stream.count += 1
        if self._m_observations is not None:
            self._m_observations.inc()

        if stream.fast is None:
            stream.warmup_sum += value
            if stream.count < config.min_observations:
                return None
            stream.fast = stream.warmup_sum / stream.count
            stream.slow = stream.fast
            return None

        assert stream.slow is not None
        stream.fast = (1.0 - config.alpha) * stream.fast + config.alpha * value
        stream.slow = (1.0 - config.baseline_alpha) * stream.slow + config.baseline_alpha * value
        if stream.cooldown_remaining > 0:
            stream.cooldown_remaining -= 1
            return None

        floor = max(config.demote_below, stream.slow - config.drop_tolerance)
        if stream.fast >= floor:
            return None
        event = DriftEvent(
            worker_id=worker_id,
            domain=domain,
            ewma=stream.fast,
            baseline=stream.slow,
            n_observations=stream.count,
        )
        stream.events += 1
        stream.cooldown_remaining = config.cooldown
        # The degraded level becomes the new baseline, so a further decay
        # (not the same one) is needed to escalate another tier.
        stream.slow = stream.fast
        self._events.append(event)
        if self._m_detections is not None:
            self._m_detections.labels(domain).inc()
        return event

    # ------------------------------------------------------------------ #
    def ewma(self, worker_id: str, domain: str) -> Optional[float]:
        """Current fast EWMA of a stream (``None`` before warm-up completes)."""
        stream = self._streams.get(worker_id, {}).get(domain)
        return stream.fast if stream is not None else None

    def baseline(self, worker_id: str, domain: str) -> Optional[float]:
        """Current baseline (slow EWMA) of a stream."""
        stream = self._streams.get(worker_id, {}).get(domain)
        return stream.slow if stream is not None else None

    def forget_worker(self, worker_id: str) -> None:
        """Drop every EWMA stream of a departed worker (O(1)).

        Bounds tracker memory on churny open-world pools: without it a
        100k-worker marketplace run accrues a stream per worker that ever
        answered, forever.  The drift-event *history* is kept — it drives
        the re-selection signal, which must remember drift that already
        happened — so a worker that later returns restarts its warm-up
        instead of resuming a stale average.
        """
        self._streams.pop(worker_id, None)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{worker: {domain: fast_ewma}}`` for every warmed-up stream."""
        result: Dict[str, Dict[str, float]] = {}
        for worker_id, streams in self._streams.items():
            for domain, stream in streams.items():
                if stream.fast is not None:
                    result.setdefault(worker_id, {})[domain] = stream.fast
        return result


__all__ = ["DriftConfig", "DriftEvent", "QualityTracker"]
