"""Rule registry: look up any analysis rule by id or name.

The *static-analysis* axis, on the shared :class:`~repro.registry.Registry`:
every rule class registers itself under its canonical id (``D001``,
``C002``, …) plus a human-readable alias (``global-rng``,
``router-contract``), so the CLI, the pragma parser and the test suite all
resolve rules through one case-insensitive lookup with friendly
unknown-rule errors:

>>> from repro.analysis.registry import make_rule, resolve_rule_name
>>> resolve_rule_name("unsorted-json")
'D003'
>>> make_rule("d003").rule_id
'D003'

Registering a custom rule is one decorator:

>>> from repro.analysis.registry import register_rule
>>> from repro.analysis.base import BaseRule
>>> @register_rule
... class MyRule(BaseRule):
...     rule_id = "X001"
...     name = "my-rule"
...     ...
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Type

from repro.analysis.base import BaseRule
from repro.registry import Registry

#: A rule registration target: the rule class itself (instantiated lazily).
RuleClass = Type[BaseRule]


def _load_builtin_rules() -> None:
    """Import the modules whose import side effect registers the rule pack."""
    import repro.analysis.pragmas  # noqa: F401  (registers P001, P002)
    import repro.analysis.rules_contracts  # noqa: F401  (registers C001-C004)
    import repro.analysis.rules_determinism  # noqa: F401  (registers D001-D005)
    import repro.analysis.rules_observability  # noqa: F401  (registers O001)
    import repro.analysis.rules_safety  # noqa: F401  (registers E001, S001, S002)


#: The process-wide registry used by :func:`make_rule` and the engine.
#: Ids are stored upper-case, so ``resolve`` returns the display id itself.
GLOBAL_RULE_REGISTRY = Registry("rule", str.upper, _load_builtin_rules)


def register_rule(
    rule: Optional[RuleClass] = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register a rule class in the global registry (usable bare: ``@register_rule``).

    The canonical key is ``rule.rule_id`` (upper-case, e.g. ``"D003"``);
    ``rule.name`` and any extra ``aliases`` become lookup aliases.
    Duplicate ids raise unless ``replace=True`` — silently shadowing a
    shipped rule would defeat the lint gate.
    """

    def _register(target: RuleClass) -> RuleClass:
        if target.rule_id != target.rule_id.strip().upper():
            # Findings carry rule_id as written; lookups return the stored form.
            raise ValueError(f"rule id {target.rule_id!r} must be upper-case")
        return GLOBAL_RULE_REGISTRY.register(
            target.rule_id, target, aliases=(target.name, *aliases), replace=replace
        )

    if rule is not None:
        return _register(rule)
    return _register


def make_rule(name: str) -> BaseRule:
    """Instantiate a registered rule by id or alias (case-insensitive)."""
    return GLOBAL_RULE_REGISTRY.create(name)


def rule_names() -> List[str]:
    """Canonical ids of every registered rule."""
    return GLOBAL_RULE_REGISTRY.names()


def rule_exists(name: str) -> bool:
    """Whether ``name`` (an id or an alias of one) is registered."""
    return name in GLOBAL_RULE_REGISTRY


def resolve_rule_name(name: str) -> str:
    """Canonical registered id for ``name`` (follows aliases, fixes case)."""
    return GLOBAL_RULE_REGISTRY.resolve(name)


def describe_rule(name: str) -> str:
    """Human-readable one-liner for a registered rule: id, name, severity, summary."""
    rule = GLOBAL_RULE_REGISTRY[name]
    return f"{rule.rule_id} ({rule.name}) [{rule.severity}] — {rule.description}"


def all_rules() -> List[BaseRule]:
    """One instance of every registered rule, ordered by rule id."""
    return [make_rule(rule_id) for rule_id in rule_names()]


__all__ = [
    "RuleClass",
    "GLOBAL_RULE_REGISTRY",
    "register_rule",
    "make_rule",
    "rule_names",
    "rule_exists",
    "resolve_rule_name",
    "describe_rule",
    "all_rules",
]
