"""Determinism & contract analyzer: the repo's reproducibility lint engine.

Every layer of this reproduction stakes its correctness on invariants no
generic linter checks: counter-based splitmix64 streams instead of global
random state, ``sort_keys`` JSON and fsynced schema-versioned journals,
and registry contracts for selectors/behaviours/routers.  This package
enforces them *statically*, before an equivalence test has to catch the
fallout:

>>> from repro.analysis import analyze, format_text
>>> report = analyze(["src"])          # doctest: +SKIP
>>> print(format_text(report))         # doctest: +SKIP

The rule pack (see ``repro-crowd lint --list-rules``):

* **D-rules** — determinism: global/unseeded RNG outside
  ``repro/stats/rng.py`` (D001), wall-clock/timer calls (D002),
  ``json.dumps`` without ``sort_keys=True`` (D003), unsynced writes in
  journal/store modules (D004), iteration over sets (D005).
* **C-rules** — contracts: registered behaviour classes implement the
  batched accuracy-curve API (C001), routers implement routing plus the
  membership hooks (C002), selector factories take ``seed`` (C003),
  payload writers in schema-versioned modules stamp ``schema_version``
  (C004).
* **O-rules** — observability: metric registrations must use the
  :mod:`repro.obs.naming` grammar, computed names via ``metric_name``
  (O001).
* **S-rules** — safety: mutable default arguments (S001), swallowed
  bare/``Exception`` handlers (S002).
* **Engine rules** — malformed suppression pragmas (P001/P002) and parse
  failures (E001).

Intentional violations are waived at the site with a mandatory reason
(e.g. the one wall-clock module the whole tree funnels through)::

    # repro: allow-file[D002] -- the single blessed wall-clock site

Custom rules plug in through the rule registry, one instance of the shared
:class:`~repro.registry.Registry`::

    from repro.analysis import BaseRule, register_rule

    @register_rule
    class NoPrintRule(BaseRule):
        rule_id = "X001"
        ...
"""

from repro.analysis.base import BaseRule
from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.engine import DEFAULT_LINT_PATHS, AnalysisReport, analyze, discover_files
from repro.analysis.findings import Finding, FindingCounts, Severity
from repro.analysis.pragmas import Pragma, SuppressionSet, parse_suppressions
from repro.analysis.registry import (
    GLOBAL_RULE_REGISTRY,
    all_rules,
    describe_rule,
    make_rule,
    register_rule,
    resolve_rule_name,
    rule_exists,
    rule_names,
)
from repro.analysis.reporters import (
    LINT_SCHEMA_VERSION,
    format_json,
    format_text,
    report_payload,
)
from repro.registry import Registry

__all__ = [
    # model
    "Finding",
    "FindingCounts",
    "Severity",
    # rules + registry
    "BaseRule",
    "Registry",
    "GLOBAL_RULE_REGISTRY",
    "register_rule",
    "make_rule",
    "all_rules",
    "rule_names",
    "rule_exists",
    "resolve_rule_name",
    "describe_rule",
    # engine
    "ModuleContext",
    "ProjectIndex",
    "AnalysisReport",
    "analyze",
    "discover_files",
    "DEFAULT_LINT_PATHS",
    # pragmas
    "Pragma",
    "SuppressionSet",
    "parse_suppressions",
    # reporters
    "LINT_SCHEMA_VERSION",
    "format_text",
    "format_json",
    "report_payload",
]
