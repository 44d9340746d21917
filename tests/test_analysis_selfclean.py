"""Meta-test: the analyzer certifies this repository's own lint surface.

This is the acceptance gate the CI job enforces: ``src``, ``benchmarks``
and ``examples`` carry zero active findings — every intentional violation
(bench timing loops, nested payloads) is waived at the site with a
reasoned pragma, and everything else has been fixed.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import DEFAULT_LINT_PATHS, ModuleContext, analyze, discover_files
from repro.analysis.rules_contracts import _registration_sites
from repro.core.registry import selector_names
from repro.serving.routing import router_names
from repro.workers.registry import behavior_names

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_repo_lint_surface_is_clean():
    report = analyze(root=REPO_ROOT)
    assert report.paths == [
        (REPO_ROOT / entry).as_posix() for entry in DEFAULT_LINT_PATHS
    ]
    problems = [
        f"{finding.location}: {finding.rule_id} {finding.message}"
        for finding in report.active
    ]
    assert problems == [], "\n".join(problems)
    # Strict mode too: not even warnings are tolerated on the shipped tree.
    assert report.exit_code(strict=True) == 0


def test_every_waiver_carries_a_reason():
    report = analyze(root=REPO_ROOT)
    assert report.suppressed, "expected the known waived sites to be reported"
    for finding in report.suppressed:
        assert finding.suppression_reason, finding.location


def test_waivers_are_the_known_intentional_sites():
    report = analyze(root=REPO_ROOT)
    waived_rules = {finding.rule_id for finding in report.suppressed}
    # Timing reports (D002) and the nested serving payload (C004) are
    # the only discipline exceptions this repo has signed off on.
    assert waived_rules == {"D002", "C004"}


def test_contract_rules_see_every_runtime_registration():
    # C001-C003 check only the registrations they find statically; a
    # built-in registered through a loop or a table would escape them.
    found = {"behavior": set(), "router": set(), "selector": set()}
    for path in discover_files([REPO_ROOT / "src"]):
        source = path.read_text(encoding="utf-8")
        module = ModuleContext(path, source, ast.parse(source), root=REPO_ROOT)
        for axis, _anchor, _target, name in _registration_sites(module):
            found[axis].add(name)
    assert set(behavior_names()) <= found["behavior"]
    assert set(router_names()) <= found["router"]
    assert set(selector_names()) <= found["selector"]
    assert (len(behavior_names()), len(router_names()), len(selector_names())) == (7, 3, 8)
