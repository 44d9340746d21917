"""Span tracing from outside the program: class-level wrappers around the layer map.

:class:`Tracer` replaces each public call listed in :data:`perfbench.layers.LAYERS`
with a wrapper that records one span per call: its name, start, end, the
enclosing span (the caller) and the current op id (a campaign, a task or a
tick).  Spans are kept in compact arrays in memory and written out once, at
the end of the run.  A few derived counts (votes routed, candidates read per
route, drift events, ...) are taken at the same boundaries.

Two rules keep the traced run faithful:

* install the wrappers *before* the pools and services of a unit are
  built, because :class:`~repro.serving.pool.ServingPool` pre-binds listener
  methods when a listener subscribes;
* never wrap a hook marked ``@pool_event_noop``: the pool skips marked hooks
  entirely, and a wrapper would drop the marker and change dispatch.
"""

from __future__ import annotations

import functools
import importlib
import itertools
from array import array
from collections import Counter
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.layers import FUNCTION_SHARES, LAYERS, functions

#: Derived counts reported as counted.
COUNTED = (
    "platform.session.answers_simulated",
    "serving.routing.votes_requested",
    "serving.routing.votes_assigned",
    "serving.quality.drift_events",
    "marketplace.lifecycle.stalled_ticks",
    "marketplace.orchestrator.arrivals",
    "marketplace.journal.append_bytes",
)

#: Span names of the routing calls.
ROUTING_SPANS = ("serving.routing.route", "serving.routing.route_excluding")


class Tracer:
    """Records spans for the wrapped calls while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self.stack: List[int] = []
        #: Op id stamped on new spans; workloads set it per campaign or task.
        self.op_id = -1
        self.counts: Counter = Counter()
        #: Shared counter of the index entries the affinity router walks.
        self._candidates = itertools.count()
        self._installed: List[Tuple[type, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------------------ #
    def wrap(self, func: Callable, name: str, op_arg: int = -1, observe: Optional[Callable] = None) -> Callable:
        """A wrapper around ``func`` that records one span per call."""
        tracer = self
        nid = self._intern(name)
        stack = self.stack
        name_ids, starts, ends, parents, ops = self.name_id, self.start, self.end, self.parent, self.op

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if op_arg >= 0 and len(args) > op_arg:
                tracer.op_id = args[op_arg]
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target of the layer map (and count routing candidates)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            for target in layer.targets:
                owner = getattr(importlib.import_module(target.module), target.owner)
                raw = owner.__dict__[target.method]
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if getattr(func, "__pool_event_noop__", False):
                    raise RuntimeError(f"{target.owner}.{target.method} is a pool no-op hook; wrapping it changes dispatch")
                name = f"{layer.name}.{target.function}"
                wrapped = self.wrap(func, name, target.op_arg, _OBSERVERS.get(name))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._installed.append((owner, target.method, raw))
                setattr(owner, target.method, wrapped)
        self._install_candidate_counter()

    def _install_candidate_counter(self) -> None:
        """Count the index entries the affinity router walks, at C speed.

        Every entry the walk yields is a worker whose capacity the router
        reads.  Zipping the walk with one shared ``itertools.count`` counts
        them without a Python frame per candidate (a counting property on
        ``has_capacity`` tripled the routing time it meant to measure).  The
        walk goes first in the zip, so an exhausted walk draws no count.
        """
        from repro.serving.index import DomainIndexSet

        raw = DomainIndexSet.__dict__["iter_tier"]
        walked = self._candidates

        def iter_tier(index, domain, tier):
            return map(itemgetter(0), zip(raw(index, domain, tier), walked))

        self._installed.append((DomainIndexSet, "iter_tier", raw))
        DomainIndexSet.iter_tier = iter_tier

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse install order)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (``self`` = duration minus children)."""
        # Copies: a live buffer view would block further appends.
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = end - start
        children = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "duration": duration,
            "self": duration - children,
        }

    def write(self, path: Path) -> None:
        """Write the spans and the name table to ``path`` (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{key: spans[key] for key in ("name_id", "start", "end", "parent", "op")},
        )

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Every per-layer metric value, given the traced wall time."""
        spans = self.arrays()
        n_names = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=n_names)
        busy = np.bincount(spans["name_id"], weights=spans["duration"], minlength=n_names)
        self_time = np.bincount(spans["name_id"], weights=spans["self"], minlength=n_names)
        values: Dict[str, float] = {}

        def stat(name: str) -> Tuple[int, float, float]:
            nid = self._name_ids.get(name)
            if nid is None:
                return 0, 0.0, 0.0
            return int(calls[nid]), float(busy[nid]), float(self_time[nid])

        for layer in LAYERS:
            layer_self = 0.0
            for target in functions(layer):
                prefix = f"{layer.name}.{target.function}"
                n, busy_s, self_s = stat(prefix)
                values[f"{prefix}.calls"] = n
                if target.nested:
                    values[f"{prefix}.busy_s"] = busy_s
                values[f"{prefix}.self_s"] = self_s
                layer_self += self_s
            values[f"{layer.name}.share"] = _ratio(layer_self, wall_s)
        for layer_name, function in FUNCTION_SHARES:
            values[f"{layer_name}.{function}.share"] = _ratio(stat(f"{layer_name}.{function}")[2], wall_s)
        counts = self.counts
        for name in COUNTED:
            values[name] = counts[name]
        values["serving.routing.fill_ratio"] = _ratio(
            counts["serving.routing.votes_assigned"], counts["serving.routing.votes_requested"]
        )
        route_calls = stat("serving.routing.route")[0] + stat("serving.routing.route_excluding")[0]
        # The count's next value is the number of entries walked so far.
        values["serving.routing.candidates_per_route"] = _ratio(next(self._candidates), route_calls)
        values["marketplace.orchestrator.admitted_ratio"] = _ratio(
            counts["marketplace.orchestrator.admitted"], counts["marketplace.orchestrator.arrivals"]
        )
        values["trace.covered_share"] = _ratio(float(spans["self"].sum()), wall_s)
        return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------- #
# Derived counts, taken at the wrapped boundaries
# ---------------------------------------------------------------------- #
def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _outermost_route(tracer: Tracer) -> bool:
    """Whether the span that just closed was not nested in another routing call."""
    if not tracer.stack:
        return True
    return tracer.names[tracer.name_id[tracer.stack[-1]]] not in ROUTING_SPANS


def _observe_route(tracer: Tracer, args, kwargs, result) -> None:
    if _outermost_route(tracer):
        tracer.counts["serving.routing.votes_requested"] += _arg(args, kwargs, 2, "n_votes")
        tracer.counts["serving.routing.votes_assigned"] += len(result)


def _observe_learning_round(tracer: Tracer, args, kwargs, result) -> None:
    workers = _arg(args, kwargs, 1, "worker_ids")
    tracer.counts["platform.session.answers_simulated"] += len(workers) * _arg(args, kwargs, 2, "tasks_per_worker")


def _observe_drift(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["serving.quality.drift_events"] += 1


def _observe_campaign_step(tracer: Tracer, args, kwargs, result) -> None:
    if result.get("stalled"):
        tracer.counts["marketplace.lifecycle.stalled_ticks"] += 1


def _observe_arrivals(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["marketplace.orchestrator.arrivals"] += len(result)
    tracer.counts["marketplace.orchestrator.admitted"] += sum(1 for event in result if event["admitted"])


def _observe_append(tracer: Tracer, args, kwargs, result) -> None:
    from repro.marketplace.journal import encode_record

    tracer.counts["marketplace.journal.append_bytes"] += sum(
        len(encode_record(record).encode("utf-8")) for record in _arg(args, kwargs, 1, "records")
    )


_OBSERVERS: Dict[str, Callable] = {
    "serving.routing.route": _observe_route,
    "serving.routing.route_excluding": _observe_route,
    "platform.session.run_learning_round": _observe_learning_round,
    "serving.quality.observe": _observe_drift,
    "marketplace.lifecycle.step": _observe_campaign_step,
    "marketplace.orchestrator.admit_arrivals": _observe_arrivals,
    "marketplace.journal.append_ticks": _observe_append,
}
