"""One name -> factory registry for every plug-in axis of the package.

The paper's evaluation is a grid of plug-ins, and each axis keeps one
process-wide :class:`Registry`: selectors (:mod:`repro.core.registry`),
worker behaviours (:mod:`repro.workers.registry`), routing policies
(:mod:`repro.serving.routing`) and lint rules (:mod:`repro.analysis.registry`).
An axis differs from the others only in the noun its errors use, the
canonical form of its names and the loader that registers its built-ins:

>>> registry = Registry("widget", str.lower)
>>> @registry.register("spinner", aliases=("spin",))
... def _build(speed=1):
...     return ("spinner", speed)
>>> registry.create("SPIN", speed=3)
('spinner', 3)
>>> registry.names()
['spinner']

Lookup strips whitespace and applies the canonical form, so it follows
aliases and ignores case; unknown names raise a :class:`KeyError` that
lists everything registered.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional

#: A registered factory: configuration in, plug-in out.
Factory = Callable[..., Any]


class Registry:
    """A name -> factory mapping with aliases and friendly errors.

    Parameters
    ----------
    noun:
        What the registry holds (``"selector"``, ``"rule"``, …), as used in
        error messages.
    canonical:
        Maps a stripped name to its stored key (``str.lower``, ``str.upper``,
        …).  Every registration and lookup goes through it.
    loader:
        Registers the built-ins.  It runs once, before the first
        registration or lookup, so a user registration can neither be
        overwritten by a built-in nor collide with one later.
    """

    def __init__(
        self,
        noun: str,
        canonical: Callable[[str], str],
        loader: Optional[Callable[[], None]] = None,
    ) -> None:
        self._noun = noun
        self._canonical = canonical
        self._loader = loader
        self._factories: Dict[str, Factory] = {}
        self._aliases: Dict[str, str] = {}

    def _load(self) -> None:
        """Run the built-in loader once (cleared first: its registrations re-enter)."""
        loader, self._loader = self._loader, None
        if loader is not None:
            loader()

    def _key(self, name: str) -> str:
        if self._loader is not None:
            self._load()
        return self._canonical(name.strip())

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Optional[Factory] = None,
        *,
        aliases: Iterable[str] = (),
        replace: bool = False,
    ):
        """Register ``factory`` under ``name`` (usable as a decorator).

        Parameters
        ----------
        name:
            Canonical name (stored in the registry's canonical form).
        factory:
            The factory callable; when omitted the method returns a
            decorator, enabling ``@registry.register("ours")``.
        aliases:
            Additional lookup names resolving to the same factory.
        replace:
            Allow overwriting an existing registration or claiming an
            alias's name (default: raise).
        """

        def _register(target: Factory) -> Factory:
            noun = self._noun
            canonical = self._key(name)
            if not canonical:
                raise ValueError(f"{noun} name must not be empty")
            if not replace:
                if canonical in self._factories:
                    raise ValueError(
                        f"{noun} {canonical!r} is already registered (pass replace=True to override)"
                    )
                if canonical in self._aliases:
                    raise ValueError(
                        f"{canonical!r} is already an alias of {noun} {self._aliases[canonical]!r} "
                        f"(pass replace=True to claim the name)"
                    )
            alias_keys = [self._key(alias) for alias in aliases]
            alias_keys = [key for key in alias_keys if key and key != canonical]
            for alias_key in alias_keys:
                if alias_key in self._factories:
                    # Aliases resolve before canonical names, so this would
                    # silently hijack a registered factory — never allowed.
                    raise ValueError(
                        f"alias {alias_key!r} collides with the registered {noun} {alias_key!r}; "
                        f"re-register that {noun} instead"
                    )
                existing = self._aliases.get(alias_key)
                if not replace and existing is not None and existing != canonical:
                    raise ValueError(f"alias {alias_key!r} already points at {noun} {existing!r}")
            # A (replacing) canonical registration wins over a stale alias;
            # otherwise the alias would keep shadowing the new factory.
            self._aliases.pop(canonical, None)
            self._factories[canonical] = target
            for alias_key in alias_keys:
                self._aliases[alias_key] = canonical
            return target

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, name: str) -> None:
        """Remove a registration and every alias pointing at it."""
        canonical = self.resolve(name)
        del self._factories[canonical]
        for alias in [a for a, target in self._aliases.items() if target == canonical]:
            del self._aliases[alias]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (follows aliases); KeyError if unknown."""
        key = self._key(name)
        key = self._aliases.get(key, key)
        if key not in self._factories:
            raise KeyError(
                f"unknown {self._noun} {name!r}; registered {self._noun}s: {', '.join(self.names())}"
            )
        return key

    def __contains__(self, name: str) -> bool:
        key = self._key(name)
        return self._aliases.get(key, key) in self._factories

    def __getitem__(self, name: str) -> Factory:
        """The factory registered under ``name`` (or an alias of it)."""
        return self._factories[self.resolve(name)]

    def names(self) -> List[str]:
        """Canonical names of every registration, sorted."""
        self._load()
        return sorted(self._factories)

    def describe(self, name: str) -> str:
        """One-line human-readable description: name, signature, docstring."""
        canonical = self.resolve(name)
        factory = self._factories[canonical]
        signature = f"{canonical}{inspect.signature(factory)}"
        doc = (inspect.getdoc(factory) or "").split("\n", 1)[0]
        return f"{signature} — {doc}" if doc else signature

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def create(self, name: str, *args: Any, **config: Any) -> Any:
        """Build the plug-in registered under ``name``: ``factory(*args, **config)``."""
        canonical = self.resolve(name)
        factory = self._factories[canonical]
        try:
            return factory(*args, **config)
        except TypeError as exc:
            raise TypeError(
                f"invalid configuration for {self._noun} {canonical!r}: {exc} "
                f"(signature: {canonical}{inspect.signature(factory)})"
            ) from exc


__all__ = ["Factory", "Registry"]
