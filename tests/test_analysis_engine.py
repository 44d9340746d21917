"""Engine-level tests: the rule registry, discovery, reporters and ordering."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    BaseRule,
    GLOBAL_RULE_REGISTRY,
    LINT_SCHEMA_VERSION,
    Severity,
    all_rules,
    analyze,
    describe_rule,
    discover_files,
    format_json,
    format_text,
    make_rule,
    register_rule,
    report_payload,
    resolve_rule_name,
    rule_exists,
    rule_names,
)
from repro.analysis.pragmas import parse_suppressions
from repro.analysis.context import ModuleContext


class _StubRule(BaseRule):
    rule_id = "T900"
    name = "stub-rule"
    severity = Severity.WARNING
    description = "test stub"

    def check(self, module, project):
        return iter(())


class TestRuleRegistry:
    def test_lookup_is_case_insensitive(self):
        assert resolve_rule_name("d003") == "D003"
        assert resolve_rule_name("D003") == "D003"

    def test_aliases_resolve_to_canonical_ids(self):
        assert resolve_rule_name("unsorted-json") == "D003"
        assert resolve_rule_name("Wall-Clock") == "D002"
        assert make_rule("global-rng").rule_id == "D001"

    def test_unknown_rule_error_lists_registered_rules(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_rule_name("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "D001" in message and "S002" in message

    def test_rule_exists(self):
        assert rule_exists("D001")
        assert rule_exists("mutable-default")
        assert not rule_exists("X999")

    def test_all_rules_ordered_by_id(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        assert ids == rule_names()

    def test_describe_mentions_id_name_and_severity(self):
        line = describe_rule("swallowed-exception")
        assert "S002" in line and "swallowed-exception" in line and "warning" in line

    def test_duplicate_registration_raises(self):
        register_rule(_StubRule)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_rule(_StubRule)
            register_rule(_StubRule, replace=True)  # explicit override allowed
        finally:
            GLOBAL_RULE_REGISTRY.unregister("T900")

    def test_unregister_drops_aliases_too(self):
        register_rule(_StubRule, aliases=("stubby",))
        assert rule_exists("stubby") and resolve_rule_name("Stub-Rule") == "T900"
        GLOBAL_RULE_REGISTRY.unregister("stubby")
        assert not rule_exists("T900")
        assert not rule_exists("stubby")
        assert not rule_exists("stub-rule")

    def test_decorator_form_returns_the_class(self):
        @register_rule
        class Local(_StubRule):
            rule_id = "T901"
            name = "local-rule"

        try:
            assert Local.rule_id == "T901"
            assert resolve_rule_name("local-rule") == "T901"
            assert make_rule("t901").rule_id == "T901"
            assert describe_rule("local-rule") == "T901 (local-rule) [warning] — test stub"
        finally:
            GLOBAL_RULE_REGISTRY.unregister("T901")

    def test_lower_case_rule_id_rejected(self):
        # A pragma naming it would resolve to "T902" while its findings say "t902".
        with pytest.raises(ValueError, match="must be upper-case"):
            register_rule(type("Lower", (_StubRule,), {"rule_id": "t902", "name": "lower"}))
        assert not rule_exists("lower")


class TestDiscovery:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_files([tmp_path / "nowhere"])

    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "ok.cpython-311.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "no.py").write_text("x = 1\n", encoding="utf-8")
        files = discover_files([tmp_path])
        assert [f.name for f in files] == ["ok.py"]

    def test_explicit_file_and_dir_deduplicate(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert discover_files([tmp_path, target]) == [target]


class TestAnalyzeSelection:
    def test_rules_filter_limits_what_is_reported(self, tmp_path):
        (tmp_path / "mixed.py").write_text(
            textwrap.dedent(
                """
                import json
                import time

                t = time.time()
                print(json.dumps({"a": 1}))
                """
            ),
            encoding="utf-8",
        )
        report = analyze([tmp_path], rules=["D003"], root=tmp_path)
        assert [f.rule_id for f in report.active] == ["D003"]
        assert report.rule_ids == ["D003"]

    def test_pragma_rules_only_fire_when_selected(self, tmp_path):
        (tmp_path / "snippet.py").write_text(
            "# repro: allow[Z999] -- bogus\nx = 1  # repro: allow[D002]\n",
            encoding="utf-8",
        )
        filtered = analyze([tmp_path], rules=["D003"], root=tmp_path)
        assert filtered.active == []
        full = analyze([tmp_path], root=tmp_path)
        assert {f.rule_id for f in full.active} == {"P001", "P002"}

    def test_findings_sorted_by_path_line_col_rule(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n", encoding="utf-8")
        (tmp_path / "a.py").write_text(
            "import json\nimport time\nt = time.time()\nprint(json.dumps({'a': 1}))\n",
            encoding="utf-8",
        )
        report = analyze([tmp_path], root=tmp_path)
        keys = [f.sort_key for f in report.findings]
        assert keys == sorted(keys)
        assert report.findings[0].path == "a.py"


class TestReporters:
    @pytest.fixture()
    def report(self, tmp_path):
        (tmp_path / "snippet.py").write_text(
            textwrap.dedent(
                """
                import time

                a = time.time()
                b = time.perf_counter()  # repro: allow[D002] -- timing harness
                """
            ),
            encoding="utf-8",
        )
        return analyze([tmp_path], root=tmp_path)

    def test_text_report_lists_location_and_rule(self, report):
        text = format_text(report)
        assert "snippet.py:4:5: D002" in text
        assert "1 findings (1 errors, 0 warnings)" in text
        assert "1 waived" in text

    def test_text_report_can_show_suppressions(self, report):
        text = format_text(report, show_suppressed=True)
        assert "waived: timing harness" in text

    def test_json_report_is_schema_versioned_and_parseable(self, report):
        payload = json.loads(format_json(report))
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["suppressed"] == 1
        assert payload["summary"]["clean"] is False
        suppressed = [f for f in payload["findings"] if f["suppressed"]]
        assert suppressed[0]["suppression_reason"] == "timing harness"

    def test_json_report_is_byte_stable(self, report):
        assert format_json(report) == format_json(report)
        assert format_json(report) == json.dumps(
            report_payload(report), indent=2, sort_keys=True
        )

    def test_clean_summary_line(self, tmp_path):
        (tmp_path / "fine.py").write_text("x = 1\n", encoding="utf-8")
        report = analyze([tmp_path], root=tmp_path)
        assert format_text(report).startswith("clean: 1 files")
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0


class TestPragmaParsing:
    def _module(self, tmp_path, source):
        import ast

        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        return ModuleContext(path, text, ast.parse(text), root=tmp_path)

    def test_trailing_pragma_anchors_to_its_line(self, tmp_path):
        suppressions = parse_suppressions(
            self._module(tmp_path, "x = 1  # repro: allow[D002] -- why not\n")
        )
        assert suppressions.lookup("D002", 1) is not None
        assert suppressions.lookup("D002", 2) is None

    def test_comment_line_pragma_anchors_to_next_line(self, tmp_path):
        suppressions = parse_suppressions(
            self._module(tmp_path, "# repro: allow[D002] -- why not\nx = 1\n")
        )
        assert suppressions.lookup("D002", 2) is not None
        assert suppressions.lookup("D002", 1) is None

    def test_reason_is_preserved(self, tmp_path):
        suppressions = parse_suppressions(
            self._module(tmp_path, "x = 1  # repro: allow[D003] -- artifact is human-facing\n")
        )
        pragma = suppressions.lookup("D003", 1)
        assert pragma.reason == "artifact is human-facing"

    def test_non_pragma_comments_ignored(self, tmp_path):
        suppressions = parse_suppressions(
            self._module(tmp_path, "x = 1  # plain comment mentioning allow[D002]\n")
        )
        assert suppressions.pragmas == []
