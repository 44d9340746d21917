"""CLI tests for the redesigned ``repro-crowd`` entry point."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_artefact_commands_keep_their_options(self):
        args = build_parser().parse_args(["table5", "--datasets", "RW-1", "S-1", "--repetitions", "2"])
        assert args.experiment == "table5"
        assert args.datasets == ["RW-1", "S-1"]
        assert args.repetitions == 2

    def test_dataset_names_canonicalised_at_parse_time(self):
        args = build_parser().parse_args(["table2", "--datasets", "rw-1", "s-3"])
        assert args.datasets == ["RW-1", "S-3"]

    def test_unknown_dataset_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["table2", "--datasets", "RW-9"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "RW-9" in stderr
        assert "RW-1" in stderr  # the error lists the valid choices

    def test_unknown_selector_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--selector", "nope"])
        assert "ours" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.experiment == "run"
        assert args.dataset == "S-1"
        assert args.selector == "ours"
        assert args.k is None
        assert args.seed == 0


class TestRunCommand:
    def test_run_json_prints_a_valid_campaign_report(self, capsys):
        assert main(["run", "--dataset", "S-1", "--selector", "us", "--k", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "S-1"
        assert payload["selector"] == "us"
        assert len(payload["selected_worker_ids"]) == 5
        assert 0.0 <= payload["mean_accuracy"] <= 1.0
        assert payload["spent_budget"] <= payload["total_budget"]

    def test_run_human_output(self, capsys):
        assert main(["run", "--dataset", "S-1", "--selector", "me", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "selected workers" in out
        assert "mean working-task accuracy" in out

    def test_run_stream_prints_round_lines(self, capsys):
        assert main(["run", "--dataset", "S-1", "--selector", "me", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "round 1/" in out


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.experiment == "serve"
        assert args.router == "domain_affinity"
        assert args.votes == 3
        assert args.tasks is None
        assert args.budget is None

    def test_unknown_router_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--router", "nope"])
        stderr = capsys.readouterr().err
        assert "least_loaded" in stderr  # the error lists the valid choices

    def test_router_aliases_accepted(self):
        args = build_parser().parse_args(["serve", "--router", "LL"])
        assert args.router == "ll"

    def test_serve_json_prints_a_valid_serving_report(self, capsys):
        assert main(
            ["serve", "--dataset", "S-1", "--selector", "us", "--k", "5", "--tasks", "40", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["router"] == "domain_affinity"
        assert payload["n_tasks_routed"] == 40
        assert payload["n_answers"] == 120
        assert len(payload["labels"]) == 40
        assert 0.0 <= payload["label_accuracy"] <= 1.0
        assert payload["tasks_per_second"] > 0

    def test_serve_human_output_mentions_drift_and_reselection(self, capsys):
        assert main(
            ["serve", "--dataset", "S-1", "--selector", "us", "--k", "5", "--tasks", "30",
             "--router", "least_loaded", "--aggregator", "majority"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 30 working tasks via least_loaded" in out
        assert "drift events" in out
        assert "re-selection recommended" in out

    def test_serve_budget_reported(self, capsys):
        assert main(
            ["serve", "--dataset", "S-1", "--selector", "us", "--k", "5", "--tasks", "30", "--budget", "45"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving budget: 45/45 (exhausted)" in out


class TestScenarioCommands:
    def test_scenario_recipe_validated_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--scenario", "bogus10"])
        assert excinfo.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_scenario_qualified_dataset_validated_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "S-1:bogus10"])
        assert "bogus" in capsys.readouterr().err

    def test_scenario_qualified_dataset_accepted(self):
        args = build_parser().parse_args(["run", "--dataset", "s-1:SPAM10"])
        assert args.dataset == "S-1:spam10"

    def test_run_with_scenario_reports_contaminated_dataset(self, capsys):
        assert main(
            ["run", "--dataset", "S-1", "--scenario", "spam10", "--selector", "us", "--k", "10", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "S-1:spammer10"

    def test_run_rejects_double_scenario(self, capsys):
        assert main(["run", "--dataset", "S-1:spam10", "--scenario", "drift10"]) == 2
        assert "already carries a scenario" in capsys.readouterr().err

    def test_behaviors_listing(self, capsys):
        assert main(["behaviors"]) == 0
        out = capsys.readouterr().out
        for name in ("spammer", "adversarial", "fatigue", "sleeper", "drifter"):
            assert name in out

    def test_behaviors_json(self, capsys):
        assert main(["behaviors", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "spammer" in payload

    def test_scenarios_listing_mentions_grammar(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "mixed30" in out
        assert "<behavior><percent>" in out

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mixed30"] == {"spammer": 0.1, "adversarial": 0.1, "drifter": 0.1}

    def test_robustness_command_prints_table(self, capsys):
        assert main(
            ["robustness", "--datasets", "S-1", "--behavior", "spammer",
             "--rates", "0", "0.1", "--methods", "us", "--repetitions", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "rate" in out
        assert "precision_at_k" in out

    def test_robustness_resume_requires_store(self, capsys):
        assert main(["robustness", "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_serve_with_drift_scenario(self, capsys):
        assert main(
            ["serve", "--dataset", "S-1", "--scenario", "drift20", "--selector", "us",
             "--k", "5", "--tasks", "30", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_tasks_routed"] == 30

    def test_serve_exits_with_reselection_status(self, capsys):
        # Heavy drift + a low threshold: the re-selection signal must be
        # surfaced as a distinct exit status so pipelines can branch on it.
        code = main(
            ["serve", "--dataset", "S-1", "--scenario", "drift40", "--selector", "us",
             "--k", "5", "--tasks", "120", "--aggregator", "majority",
             "--reselect-fraction", "0.2", "--json"]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["reselection_recommended"] is True
        assert payload["reselection_domains"] == ["target"]
        assert payload["schema_version"] == 1


class TestMarketplaceCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["marketplace"])
        assert args.experiment == "marketplace"
        assert args.datasets == ["S-1", "S-2"]
        assert args.ticks == 50
        assert args.tick_batch == 8
        assert args.router == "least_loaded"
        assert args.journal is None and not args.resume

    def test_json_report(self, capsys):
        assert main(["marketplace", "--ticks", "20", "--total-tasks", "20", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_ticks"] == 20
        assert [campaign["name"] for campaign in payload["campaigns"]] == ["c0-s-1", "c1-s-2"]
        assert payload["marketplace"]["arrivals_admitted"] >= 0

    def test_human_output_summarises_churn_and_campaigns(self, capsys):
        assert main(["marketplace", "--ticks", "20", "--total-tasks", "20"]) == 0
        out = capsys.readouterr().out
        assert "marketplace churn" in out
        assert "c0-s-1" in out and "c1-s-2" in out

    def test_journal_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "mkt.jsonl"
        argv = ["marketplace", "--ticks", "20", "--total-tasks", "20",
                "--journal", str(journal), "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        reference = journal.read_bytes()
        lines = reference.decode("utf-8").splitlines(keepends=True)
        journal.write_text("".join(lines[:6]), encoding="utf-8")
        assert main(argv + ["--resume"]) == 0
        capsys.readouterr()
        assert journal.read_bytes() == reference

    def test_resume_requires_journal(self, capsys):
        assert main(["marketplace", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_scenario_qualified_datasets_accepted(self):
        args = build_parser().parse_args(["marketplace", "--datasets", "s-1:DRIFT20", "S-2"])
        assert args.datasets == ["S-1:drift20", "S-2"]


class TestMetricsCommand:
    def test_json_prints_the_catalog(self, capsys):
        from repro.obs.catalog import catalog_json

        assert main(["metrics", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == catalog_json() + "\n"
        names = [row["name"] for row in json.loads(out)["metrics"]]
        assert len(names) == 29
        assert names == sorted(names)

    def test_text_lists_one_line_per_catalog_row(self, capsys):
        from repro.obs.catalog import METRIC_CATALOG

        assert main(["metrics"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"metric catalog ({len(METRIC_CATALOG)} metrics;")
        for spec in METRIC_CATALOG:
            rows = [line for line in lines if line.startswith(f"  {spec.name} ({spec.kind}")]
            assert len(rows) == 1, spec.name
            assert rows[0].endswith(f": {spec.help}")
