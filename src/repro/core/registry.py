"""Selector registry: construct any worker-selection strategy by name.

The *method* axis of the paper's evaluation grid, on the shared
:class:`~repro.registry.Registry`.  Every selector — the proposed pipeline,
its ablations and all baselines — registers a keyword-configurable factory
under a canonical name (plus optional aliases), so new strategies plug in
without touching core configuration code:

>>> from repro.core.registry import make_selector, register_selector
>>> selector = make_selector("ours", seed=3, target_initial_accuracy=0.6)
>>> selector.name
'ours'

Registering a custom strategy is one decorator:

>>> @register_selector("always-first")
... def _build(seed=None):
...     ...

Factories take keyword configuration only; ``seed`` is the conventional
name for the random seed every factory should accept.  Lookup is
case-insensitive and unknown names raise a :class:`KeyError` that lists
everything registered.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, List, Optional

from repro.core.selector import BaseWorkerSelector
from repro.registry import Registry

#: A selector factory: keyword configuration in, ready-to-run selector out.
SelectorFactory = Callable[..., BaseWorkerSelector]


def _load_builtin_selectors() -> None:
    """Import the modules whose import side effect registers the built-ins."""
    import repro.baselines  # noqa: F401  (registers us, me, li, me-cpe, ours, random, oracle)
    import repro.core.pipeline  # noqa: F401  (registers cross-domain)


#: The process-wide registry used by :func:`make_selector` and the harness.
GLOBAL_SELECTOR_REGISTRY = Registry("selector", str.lower, _load_builtin_selectors)


def register_selector(
    name: str,
    factory: Optional[SelectorFactory] = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register a selector factory in the global registry (decorator-friendly)."""
    return GLOBAL_SELECTOR_REGISTRY.register(name, factory, aliases=aliases, replace=replace)


def make_selector(name: str, *, ignore_unsupported: bool = False, **config: object) -> BaseWorkerSelector:
    """Construct a registered selector by name with keyword configuration.

    ``ignore_unsupported=True`` silently drops configuration keys the
    factory does not accept.  Harness code that broadcasts shared knobs
    (e.g. ``target_initial_accuracy``) over heterogeneous rosters uses it;
    direct API users should keep the strict default so typos fail.

    >>> make_selector("me", seed=7).name
    'me'
    """
    if ignore_unsupported:
        parameters = inspect.signature(GLOBAL_SELECTOR_REGISTRY[name]).parameters
        if not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            config = {key: value for key, value in config.items() if key in parameters}
    return GLOBAL_SELECTOR_REGISTRY.create(name, **config)


def selector_names() -> List[str]:
    """Canonical names of every registered selector."""
    return GLOBAL_SELECTOR_REGISTRY.names()


def selector_exists(name: str) -> bool:
    """Whether ``name`` (or an alias of it) is registered."""
    return name in GLOBAL_SELECTOR_REGISTRY


def resolve_selector_name(name: str) -> str:
    """Canonical registered name for ``name`` (follows aliases, fixes case)."""
    return GLOBAL_SELECTOR_REGISTRY.resolve(name)


def describe_selector(name: str) -> str:
    """Human-readable signature line for a registered selector."""
    return GLOBAL_SELECTOR_REGISTRY.describe(name)


__all__ = [
    "SelectorFactory",
    "GLOBAL_SELECTOR_REGISTRY",
    "register_selector",
    "make_selector",
    "selector_names",
    "selector_exists",
    "resolve_selector_name",
    "describe_selector",
]
