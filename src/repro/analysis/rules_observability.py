"""O-rules: the observability discipline.

Metric identity is an API: the catalog, the Prometheus exposition and
the byte-stable snapshots all key on the dotted metric name, so a name
that dodges the :mod:`repro.obs.naming` grammar (or is glued together
with string arithmetic the grammar never sees) silently forks the
telemetry namespace.

``O001`` metric registrations must pass a literal name that satisfies
the grammar, or build one through :func:`repro.obs.naming.metric_name`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.base import BaseRule
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register_rule
from repro.obs.naming import METRIC_NAME_PATTERN

#: Registry methods whose first argument is a metric name (``metric``
#: declares a catalog family by name).
REGISTRATION_METHODS = frozenset({"counter", "gauge", "histogram", "metric"})

#: The blessed constructor for computed metric names.
NAMING_HELPER = "repro.obs.naming.metric_name"


def _name_argument(node: ast.Call) -> Optional[ast.expr]:
    """The metric-name argument of a registration call, if present."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _is_string_assembly(node: ast.expr) -> bool:
    """Whether ``node`` glues a string together at the call site."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("format", "join")
    return False


@register_rule
class MetricNamingRule(BaseRule):
    """Metric names follow one grammar, enforced at the registration call."""

    rule_id = "O001"
    name = "metric-naming"
    severity = Severity.ERROR
    description = (
        "metric registered under an invalid or hand-assembled name; "
        "use the repro.obs.naming grammar (metric_name for computed names)"
    )

    def check(self, module: ModuleContext, project: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in REGISTRATION_METHODS:
                continue
            name_arg = _name_argument(node)
            if name_arg is None:
                continue
            message = self._violation(module, func.attr, name_arg)
            if message is not None:
                yield self.finding(module, name_arg, message)

    @staticmethod
    def _violation(module: ModuleContext, method: str, name_arg: ast.expr) -> Optional[str]:
        if isinstance(name_arg, ast.Constant):
            if not isinstance(name_arg.value, str):
                return f".{method}() metric name must be a string, got {name_arg.value!r}"
            if METRIC_NAME_PATTERN.match(name_arg.value) is None:
                return (
                    f"metric name {name_arg.value!r} breaks the naming grammar "
                    f"(dotted lowercase, at least two segments)"
                )
            return None
        if isinstance(name_arg, ast.Call):
            qualified = module.resolve_call(name_arg)
            if qualified == NAMING_HELPER or (
                qualified is not None and qualified.endswith(".metric_name")
            ):
                return None
            if _is_string_assembly(name_arg):
                return (
                    f"computed .{method}() metric name; build it with "
                    f"repro.obs.naming.metric_name so the grammar is enforced"
                )
            # An opaque helper call: trust it (the registry re-validates at
            # runtime) — only visible string assembly is worth flagging.
            return None
        if _is_string_assembly(name_arg):
            return (
                f"hand-assembled .{method}() metric name; build it with "
                f"repro.obs.naming.metric_name so the grammar is enforced"
            )
        # A plain variable/attribute reference: resolvable only at runtime,
        # where MetricsRegistry validates against the same grammar.
        return None


__all__ = ["MetricNamingRule", "REGISTRATION_METHODS", "NAMING_HELPER"]
