"""Behavior registry: construct any worker behaviour by name.

The *worker-behaviour* axis of the simulation, on the shared
:class:`~repro.registry.Registry`: every behaviour — the paper's
static/learning workers and the contamination behaviours (spammer,
adversarial, fatigue, sleeper, drifter) — registers a keyword-configurable
factory under a canonical name (plus optional aliases), so new behaviours
plug into population mixes, scenario presets and the CLI without touching
core code:

>>> from repro.workers.registry import make_behavior
>>> from repro.workers.profile import WorkerProfile
>>> profile = WorkerProfile("w-0", {"a": 0.7}, {"a": 10})
>>> make_behavior("spammer", profile=profile).current_accuracy
0.5

Registering a custom behaviour is one decorator:

>>> from repro.workers.registry import register_behavior
>>> @register_behavior("always-right")
... def _build(profile):
...     ...

Factories take the worker's :class:`~repro.workers.profile.WorkerProfile`
as ``profile`` plus keyword configuration.  Lookup is case-insensitive and
unknown names raise a :class:`KeyError` that lists everything registered.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.registry import Registry
from repro.workers.profile import WorkerProfile

#: A behaviour factory: profile + keyword configuration in, behaviour out.
BehaviorFactory = Callable[..., "object"]


def _load_builtin_behaviors() -> None:
    """Register the built-in behaviour classes."""
    from repro.workers import behavior as b

    register_behavior("static", b.StaticWorker, aliases=("fixed",))
    register_behavior("learning", b.LearningWorker)
    register_behavior("spammer", b.SpammerWorker, aliases=("spam",))
    register_behavior("adversarial", b.AdversarialWorker, aliases=("adv",))
    register_behavior("fatigue", b.FatigueWorker, aliases=("fatigued",))
    register_behavior("sleeper", b.SleeperWorker, aliases=("sleep",))
    register_behavior("drifter", b.DrifterWorker, aliases=("drift",))


#: The process-wide registry used by :func:`make_behavior` and the samplers.
GLOBAL_BEHAVIOR_REGISTRY = Registry("behavior", str.lower, _load_builtin_behaviors)


def register_behavior(
    name: str,
    factory: Optional[BehaviorFactory] = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register a behaviour factory in the global registry (decorator-friendly)."""
    return GLOBAL_BEHAVIOR_REGISTRY.register(name, factory, aliases=aliases, replace=replace)


def make_behavior(name: str, *, profile: WorkerProfile, **config: object):
    """Construct a registered behaviour by name for one worker profile."""
    return GLOBAL_BEHAVIOR_REGISTRY.create(name, profile=profile, **config)


def behavior_names() -> List[str]:
    """Canonical names of every registered behaviour."""
    return GLOBAL_BEHAVIOR_REGISTRY.names()


def behavior_exists(name: str) -> bool:
    """Whether ``name`` (or an alias of it) is registered."""
    return name in GLOBAL_BEHAVIOR_REGISTRY


def resolve_behavior_name(name: str) -> str:
    """Canonical registered name for ``name`` (follows aliases, fixes case)."""
    return GLOBAL_BEHAVIOR_REGISTRY.resolve(name)


def describe_behavior(name: str) -> str:
    """Human-readable signature line for a registered behaviour."""
    return GLOBAL_BEHAVIOR_REGISTRY.describe(name)


__all__ = [
    "BehaviorFactory",
    "GLOBAL_BEHAVIOR_REGISTRY",
    "register_behavior",
    "make_behavior",
    "behavior_names",
    "behavior_exists",
    "resolve_behavior_name",
    "describe_behavior",
]
