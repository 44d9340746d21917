"""Command-line interface: run one annotation campaign or regenerate paper artefacts.

Examples
--------
Run a single campaign with the proposed method and print the selection as JSON::

    repro-crowd run --dataset S-1 --selector ours --k 5 --json

Stream per-round progress of a campaign::

    repro-crowd run --dataset RW-1 --selector me-cpe --stream

Select workers on S-1 and serve 200 working tasks through the selected pool::

    repro-crowd serve --dataset S-1 --selector ours --router domain_affinity --tasks 200

Run two concurrent campaigns against one churning marketplace with a
crash-recoverable event journal::

    repro-crowd marketplace --datasets S-1 S-2 --ticks 50 --journal run.jsonl

Run a campaign on a contaminated pool (10% spammers)::

    repro-crowd run --dataset S-1 --scenario spam10 --selector ours

Sweep contamination rates and compare every method's robustness::

    repro-crowd robustness --datasets S-1 --behavior spammer --rates 0 0.1 0.2 0.4

List the registered worker behaviors / scenario recipes::

    repro-crowd behaviors
    repro-crowd scenarios

Run the main results table on the two real-world datasets with 3 repetitions::

    repro-crowd table5 --datasets RW-1 RW-2 --repetitions 3

Run the comparison grid over 4 worker processes with a resumable store::

    repro-crowd experiments --datasets S-1 S-2 --n-jobs 4 --store grid.jsonl --resume

Print the dataset statistics (Table II)::

    repro-crowd table2

Sweep the initial target accuracy (Figure 5) on S-1::

    repro-crowd figure5 --datasets S-1 --repetitions 2
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Sequence

from repro.analysis import resolve_rule_name, rule_names
from repro.campaign import Campaign
from repro.config import ExperimentConfig
from repro.core.registry import resolve_selector_name, selector_names
from repro.datasets.registry import (
    DATASET_NAMES,
    SCENARIO_RECIPES,
    SCENARIO_SEPARATOR,
    parse_scenario,
)
from repro.serving.routing import resolve_router_name, router_names
from repro.workers.registry import behavior_names, describe_behavior

# ``repro-crowd serve`` exits with this status (not 0) when the drift
# detector recommends re-selection, so shell pipelines can branch on the
# signal without parsing the report.
RESELECTION_EXIT_CODE = 3

EXPERIMENTS = (
    "table2",
    "table4",
    "table5",
    "figure5",
    "figure6",
    "figure7",
    "runtime",
    "correlation",
    "training-gain",
)


def _dataset_name(value: str) -> str:
    """Argparse type: canonicalise a dataset (or scenario) name at parse time."""
    base, _, recipe = value.partition(SCENARIO_SEPARATOR)
    canonical = base.strip().upper()
    if canonical not in DATASET_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown dataset {base!r}; choose from: {', '.join(DATASET_NAMES)}"
        )
    if recipe:
        try:
            parse_scenario(recipe)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return f"{canonical}{SCENARIO_SEPARATOR}{recipe.strip().lower()}"
    return canonical


def _scenario_recipe(value: str) -> str:
    """Argparse type: validate a contamination recipe against the grammar."""
    try:
        parse_scenario(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value.strip().lower()


def _apply_scenario(dataset: str, scenario: Optional[str]) -> str:
    """Qualify ``dataset`` with ``--scenario`` unless it already carries one."""
    if not scenario:
        return dataset
    if SCENARIO_SEPARATOR in dataset:
        raise ValueError(
            f"dataset {dataset!r} already carries a scenario; drop --scenario or the ':<recipe>' suffix"
        )
    return f"{dataset}{SCENARIO_SEPARATOR}{scenario}"


def _registered(resolve: Callable[[str], str]) -> Callable[[str], str]:
    """Argparse type: accept the names ``resolve`` knows, with its unknown-name message."""

    def _name(value: str) -> str:
        try:
            resolve(value)
        except KeyError as exc:
            raise argparse.ArgumentTypeError(exc.args[0])
        return value.strip().lower()

    return _name


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro-crowd`` entry point."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-crowd",
        description=(
            "Cross-domain-aware worker selection: run annotation campaigns and "
            "regenerate the paper's tables and figures."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="experiment", required=True, metavar="command")

    artefact_options = argparse.ArgumentParser(add_help=False)
    artefact_options.add_argument(
        "--datasets",
        nargs="+",
        type=_dataset_name,
        default=None,
        metavar="NAME",
        help=f"datasets to include (default depends on the experiment); choices: {', '.join(DATASET_NAMES)}",
    )
    artefact_options.add_argument(
        "--repetitions", type=int, default=3, help="repetitions per cell (default 3)"
    )
    artefact_options.add_argument("--seed", type=int, default=7, help="base random seed (default 7)")
    artefact_options.add_argument(
        "--at", type=float, default=0.5, help="initial target-domain accuracy a_T (default 0.5)"
    )
    artefact_options.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the comparison grid (default 1; results are identical at any value)",
    )
    for experiment in EXPERIMENTS:
        subparsers.add_parser(
            experiment,
            parents=[artefact_options],
            help=f"regenerate the paper's {experiment.replace('-', ' ')} artefact",
        )

    experiments_parser = subparsers.add_parser(
        "experiments",
        parents=[artefact_options],
        help="run the raw (dataset x method x repetition) comparison grid",
        description=(
            "Run the shared comparison protocol directly: every (dataset, "
            "method, repetition, k, q) work unit is executed — optionally "
            "sharded over --n-jobs processes — and the per-method mean "
            "accuracies are printed.  With --store, one JSONL record is "
            "appended per completed unit so an interrupted sweep can be "
            "finished later with --resume."
        ),
    )
    experiments_parser.add_argument(
        "--methods",
        nargs="+",
        type=_registered(resolve_selector_name),
        default=None,
        metavar="NAME",
        help=f"methods to run (default: the Table V roster); choices: {', '.join(selector_names())}",
    )
    experiments_parser.add_argument(
        "--k", type=int, default=None, help="selection-size override (default: each dataset's k)"
    )
    experiments_parser.add_argument(
        "--q", type=int, default=None, help="per-batch task-count override (default: each dataset's Q)"
    )
    experiments_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store: one atomic record per completed work unit",
    )
    experiments_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip work units already recorded in --store (requires --store)",
    )
    experiments_parser.add_argument(
        "--progress", action="store_true", help="print one line per completed work unit to stderr"
    )
    experiments_parser.add_argument(
        "--scenario",
        type=_scenario_recipe,
        default=None,
        metavar="RECIPE",
        help="contaminate every dataset with a scenario recipe (e.g. 'spam10', 'mixed30')",
    )

    robustness_parser = subparsers.add_parser(
        "robustness",
        parents=[artefact_options],
        help="sweep pool-contamination rates and compare every method's selection quality",
        description=(
            "Contamination robustness sweep: for each dataset and each "
            "--rates value r, run the comparison grid on the scenario "
            "'<dataset>:<behavior><r*100>' (r=0 is the clean pool) and "
            "report selection accuracy and precision@k per method."
        ),
    )
    robustness_parser.add_argument(
        "--behavior",
        default="spammer",
        metavar="NAME",
        help=f"behavior injected into the pool (default 'spammer'); choices: {', '.join(behavior_names())}",
    )
    robustness_parser.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=None,
        metavar="RATE",
        help="contamination rates as fractions (default: 0 0.1 0.2 0.4)",
    )
    robustness_parser.add_argument(
        "--methods",
        nargs="+",
        type=_registered(resolve_selector_name),
        default=None,
        metavar="NAME",
        help="methods to run (default: the Table V roster)",
    )
    robustness_parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store: one atomic record per completed work unit",
    )
    robustness_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip work units already recorded in --store (requires --store)",
    )
    robustness_parser.add_argument(
        "--progress", action="store_true", help="print one line per completed work unit to stderr"
    )

    behaviors_parser = subparsers.add_parser(
        "behaviors",
        help="list the registered worker behaviors",
        description="List every registered worker behavior with its factory signature.",
    )
    behaviors_parser.add_argument("--json", action="store_true", help="print the list as JSON")

    scenarios_parser = subparsers.add_parser(
        "scenarios",
        help="list the named scenario recipes and the recipe grammar",
        description=(
            "List the named contamination recipes and explain the scenario "
            "grammar '<dataset>:<behavior><percent>[+<behavior><percent>...]'."
        ),
    )
    scenarios_parser.add_argument("--json", action="store_true", help="print the list as JSON")

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="list the telemetry metric catalog",
        description=(
            "Print the static metric catalog: every counter, gauge and "
            "histogram an instrumented run can emit (enable collection "
            "with --metrics-out on serve/marketplace), with labels and "
            "the emitting module."
        ),
    )
    metrics_parser.add_argument("--json", action="store_true", help="print the catalog as JSON")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the determinism & contract analyzer over the repo's sources",
        description=(
            "Statically check the reproducibility discipline: unseeded RNG, "
            "wall-clock reads, unsorted JSON artifacts, unsynced journal "
            "writes, registry contracts, and more.  Intentional violations "
            "are waived inline with '# repro: allow[RULE] -- <reason>'."
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: src benchmarks examples)",
    )
    lint_parser.add_argument(
        "--rules",
        nargs="+",
        type=_registered(resolve_rule_name),
        default=None,
        metavar="RULE",
        help="run only these rules (ids or aliases, case-insensitive)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text; json is the schema-versioned CI artifact)",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only errors",
    )
    lint_parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings waived by pragmas (text format only)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )

    run_parser = subparsers.add_parser(
        "run",
        help="run one annotation campaign (select k workers on one dataset)",
        description=(
            "Run a single worker-selection campaign: load a dataset, run the "
            "chosen selector under the paper's budget protocol, and report the "
            "selected workers with their evaluated working-task accuracy."
        ),
    )
    run_parser.add_argument("--dataset", type=_dataset_name, default="S-1", help="dataset name (default S-1)")
    run_parser.add_argument(
        "--selector",
        type=_registered(resolve_selector_name),
        default="ours",
        help=f"registered selector (default 'ours'); choices: {', '.join(selector_names())}",
    )
    run_parser.add_argument("--k", type=int, default=None, help="workers to select (default: the dataset's k)")
    run_parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    run_parser.add_argument(
        "--scenario",
        type=_scenario_recipe,
        default=None,
        metavar="RECIPE",
        help="contaminate the dataset's pool (e.g. 'spam10', 'adversarial20+drift10', 'mixed30')",
    )
    run_parser.add_argument(
        "--tasks-per-batch", type=int, default=None, help="override the dataset's per-batch task count Q"
    )
    run_parser.add_argument(
        "--at",
        type=float,
        default=None,
        help="initial target-domain accuracy a_T (rejected if the selector does not model it)",
    )
    run_parser.add_argument("--json", action="store_true", help="print the full campaign report as JSON")
    run_parser.add_argument("--stream", action="store_true", help="print one line per elimination round")

    serve_parser = subparsers.add_parser(
        "serve",
        help="select k workers, then serve working tasks through the selected pool",
        description=(
            "Run one selection campaign and hand the selected workers to the "
            "serving layer: route a stream of working tasks with the chosen "
            "policy, aggregate the answers online and report labels, drift "
            "events and the re-selection signal.  Exits with status "
            f"{RESELECTION_EXIT_CODE} (instead of 0) when the drift detector "
            "recommends re-selecting the pool."
        ),
    )
    serve_parser.add_argument("--dataset", type=_dataset_name, default="S-1", help="dataset name (default S-1)")
    serve_parser.add_argument(
        "--selector",
        type=_registered(resolve_selector_name),
        default="ours",
        help=f"registered selector (default 'ours'); choices: {', '.join(selector_names())}",
    )
    serve_parser.add_argument("--k", type=int, default=None, help="workers to select (default: the dataset's k)")
    serve_parser.add_argument("--seed", type=int, default=0, help="campaign + serving seed (default 0)")
    serve_parser.add_argument(
        "--scenario",
        type=_scenario_recipe,
        default=None,
        metavar="RECIPE",
        help="contaminate the dataset's pool (e.g. 'drift20' exercises the drift detector)",
    )
    serve_parser.add_argument(
        "--router",
        type=_registered(resolve_router_name),
        default="domain_affinity",
        help=f"routing policy (default 'domain_affinity'); choices: {', '.join(router_names())}",
    )
    serve_parser.add_argument(
        "--votes", type=int, default=3, help="distinct workers asked per working task (default 3)"
    )
    serve_parser.add_argument(
        "--tasks", type=int, default=None, help="working tasks to serve (default: the dataset's working set)"
    )
    serve_parser.add_argument(
        "--budget", type=int, default=None, help="serving budget in vote units (default: unlimited)"
    )
    serve_parser.add_argument(
        "--aggregator",
        choices=("dawid_skene", "majority"),
        default="dawid_skene",
        help="online label aggregator (default dawid_skene)",
    )
    serve_parser.add_argument(
        "--reselect-fraction",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of the pool that must drift on one domain before re-selection is recommended (default 0.5)",
    )
    serve_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "enable telemetry and write the byte-stable metrics snapshot "
            "(sorted JSON) to PATH after serving; the trace stays identical"
        ),
    )
    serve_parser.add_argument("--json", action="store_true", help="print the full serving report as JSON")

    marketplace_parser = subparsers.add_parser(
        "marketplace",
        help="run N concurrent campaigns against one shared, churning worker marketplace",
        description=(
            "Multi-campaign marketplace orchestration: run one campaign per "
            "--datasets entry concurrently against a shared worker marketplace "
            "with open-world churn (seeded arrivals with prestudy "
            "qualification, departures with in-flight vote invalidation) under "
            "a deterministic batched-tick event loop.  With --journal, every "
            "tick is appended to a crash-recoverable JSONL journal whose bytes "
            "are identical at any --tick-batch; --resume replays a prefix and "
            "continues."
        ),
    )
    marketplace_parser.add_argument(
        "--datasets",
        nargs="+",
        type=_dataset_name,
        default=["S-1", "S-2"],
        metavar="NAME",
        help="one campaign per dataset (default: S-1 S-2)",
    )
    marketplace_parser.add_argument(
        "--selector",
        type=_registered(resolve_selector_name),
        default="us",
        help=f"selector used by every campaign (default 'us'); choices: {', '.join(selector_names())}",
    )
    marketplace_parser.add_argument(
        "--k", type=int, default=None, help="workers to select per campaign (default: each dataset's k)"
    )
    marketplace_parser.add_argument("--seed", type=int, default=0, help="marketplace seed (default 0)")
    marketplace_parser.add_argument("--ticks", type=int, default=50, help="ticks to run (default 50)")
    marketplace_parser.add_argument(
        "--tick-batch",
        type=int,
        default=8,
        metavar="N",
        help="ticks buffered per journal fsync (default 8; bytes are identical at any value)",
    )
    marketplace_parser.add_argument(
        "--tasks-per-tick", type=int, default=2, help="tasks each serving campaign submits per tick (default 2)"
    )
    marketplace_parser.add_argument(
        "--votes", type=int, default=3, help="distinct workers asked per working task (default 3)"
    )
    marketplace_parser.add_argument(
        "--router",
        type=_registered(resolve_router_name),
        default="least_loaded",
        help=f"routing policy shared by every campaign (default 'least_loaded'); choices: {', '.join(router_names())}",
    )
    marketplace_parser.add_argument(
        "--arrival-rate", type=float, default=0.5, help="expected worker arrivals per tick (default 0.5)"
    )
    marketplace_parser.add_argument(
        "--departure-rate",
        type=float,
        default=0.02,
        help="per-present-worker departure probability per tick (default 0.02)",
    )
    marketplace_parser.add_argument(
        "--total-tasks",
        type=int,
        default=None,
        help="tasks each campaign must label before DONE (default: the dataset's working set)",
    )
    marketplace_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append-only JSONL event journal (crash-recoverable; fsynced per tick batch)",
    )
    marketplace_parser.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --journal prefix and continue the run (requires --journal)",
    )
    marketplace_parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "enable telemetry and write the byte-stable metrics snapshot "
            "(sorted JSON) to PATH after the run; journal bytes stay identical"
        ),
    )
    marketplace_parser.add_argument(
        "--json", action="store_true", help="print the full marketplace report as JSON"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        n_repetitions=args.repetitions,
        base_seed=args.seed,
        target_initial_accuracy=args.at,
        n_jobs=args.n_jobs,
    )


def _run_experiments(args: argparse.Namespace) -> int:
    """The ``repro-crowd experiments`` subcommand: the raw comparison grid."""
    from repro.experiments import comparison_rows, format_table, run_method_comparison
    from repro.experiments.runner import WorkUnit

    if args.resume and args.store is None:
        print("repro-crowd experiments: error: --resume requires --store", file=sys.stderr)
        return 2

    datasets = args.datasets if args.datasets is not None else list(DATASET_NAMES)
    if args.scenario:
        try:
            datasets = [_apply_scenario(dataset, args.scenario) for dataset in datasets]
        except ValueError as exc:
            print(f"repro-crowd experiments: error: {exc}", file=sys.stderr)
            return 2
    methods = args.methods

    def _progress(done: int, total: int, unit: Optional[WorkUnit]) -> None:
        if unit is None:
            print(f"resumed: {done}/{total} work units already in {args.store}", file=sys.stderr)
        else:
            print(
                f"[{done}/{total}] {unit.dataset} {unit.method} "
                f"rep={unit.repetition} k={unit.k} q={unit.q}",
                file=sys.stderr,
            )

    try:
        results = run_method_comparison(
            datasets,
            config=_config_from_args(args),
            methods=methods,
            k_override=args.k,
            q_override=args.q,
            store_path=args.store,
            resume=args.resume,
            progress=_progress if args.progress else None,
        )
    except ValueError as exc:
        # Store/config mismatches and bad overrides are user errors.
        print(f"repro-crowd experiments: error: {exc}", file=sys.stderr)
        return 2
    print(format_table(comparison_rows(results, methods=methods)))
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    selector_config = {}
    if args.at is not None:
        selector_config["target_initial_accuracy"] = args.at
    try:
        # Campaign construction validates the dataset, the selector name and
        # its configuration, and the k/Q overrides eagerly; failures here are
        # user errors, not crashes.  Errors past this point are real bugs and
        # keep their tracebacks.
        campaign = Campaign(
            dataset=_apply_scenario(args.dataset, args.scenario),
            selector=args.selector,
            k=args.k,
            seed=args.seed,
            tasks_per_batch=args.tasks_per_batch,
            selector_config=selector_config,
        )
    except (KeyError, TypeError, ValueError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else exc
        print(f"repro-crowd run: error: {message}", file=sys.stderr)
        return 2
    return _report_campaign(campaign, args)


def _report_campaign(campaign: Campaign, args: argparse.Namespace) -> int:
    if args.stream:
        # Under --json, stdout must stay a single valid JSON document, so the
        # per-round progress goes to stderr.
        stream_sink = sys.stderr if args.json else sys.stdout
        print(
            f"campaign {campaign.dataset_name} / {campaign.selector_name}: "
            f"k={campaign.k}, {campaign.n_rounds} rounds, seed={campaign.seed}",
            file=stream_sink,
        )
        for event in campaign.steps():
            print(
                f"  round {event.round_index}/{event.n_rounds}: "
                f"{len(event.worker_ids)} -> {len(event.survivors)} workers, "
                f"{event.tasks_per_worker} tasks/worker, budget {event.spent_budget} spent",
                file=stream_sink,
            )
    report = campaign.run()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"selected workers ({len(report.selected_worker_ids)} of k={report.k}):")
    for worker_id in report.selected_worker_ids:
        accuracy = report.per_worker_accuracy.get(worker_id, float("nan"))
        print(f"  {worker_id}: final accuracy {accuracy:.3f}")
    print(f"mean working-task accuracy: {report.mean_accuracy:.3f}")
    print(f"ground-truth top-{report.k} accuracy: {report.ground_truth_accuracy:.3f}")
    print(f"overlap with true top-k: {report.precision_at_k:.0%}")
    print(f"budget: {report.spent_budget}/{report.total_budget} over {report.n_rounds} rounds")
    return 0


def _write_metrics_snapshot(path: str, telemetry) -> None:
    """Write a telemetry bundle's byte-stable snapshot JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(telemetry.snapshot_json())
        handle.write("\n")


def _serve_campaign(args: argparse.Namespace) -> int:
    """The ``repro-crowd serve`` subcommand: selection + serving handoff."""
    overrides = {}
    if args.reselect_fraction is not None:
        overrides["reselect_fraction"] = args.reselect_fraction
    telemetry = None
    if args.metrics_out is not None:
        from repro.obs import create_telemetry

        telemetry = create_telemetry()
    try:
        campaign = Campaign(
            dataset=_apply_scenario(args.dataset, args.scenario),
            selector=args.selector,
            k=args.k,
            seed=args.seed,
        )
        report = campaign.serve(
            n_tasks=args.tasks,
            router=args.router,
            votes_per_task=args.votes,
            max_assignments=args.budget,
            aggregator=args.aggregator,
            seed=args.seed,
            telemetry=telemetry,
            **overrides,
        )
    except (KeyError, TypeError, ValueError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else exc
        print(f"repro-crowd serve: error: {message}", file=sys.stderr)
        return 2
    if telemetry is not None:
        _write_metrics_snapshot(args.metrics_out, telemetry)
    exit_code = RESELECTION_EXIT_CODE if report.reselection_recommended else 0
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return exit_code
    print(
        f"served {report.n_tasks_routed} working tasks via {report.router} "
        f"({report.n_answers} answers, {report.aggregator} aggregation)"
    )
    if report.label_accuracy is not None:
        print(f"aggregated label accuracy: {report.label_accuracy:.3f}")
    if report.max_assignments is not None:
        exhausted = " (exhausted)" if report.budget_exhausted else ""
        print(f"serving budget: {report.spent_assignments}/{report.max_assignments}{exhausted}")
    print("worker load (assigned/completed):")
    for worker_id, load in report.worker_load.items():
        print(f"  {worker_id}: {load['assigned_total']}/{load['completed_total']}")
    if report.drift_events:
        print(f"drift events ({len(report.drift_events)}):")
        for event in report.drift_events:
            print(
                f"  {event.worker_id} on {event.domain}: ewma {event.ewma:.3f} "
                f"(baseline {event.baseline:.3f}) after {event.n_observations} answers"
            )
    else:
        print("drift events: none")
    if report.reselection_recommended:
        domains = ", ".join(report.reselection_domains)
        print(f"re-selection recommended: yes ({domains}) — exiting {RESELECTION_EXIT_CODE}")
    else:
        print("re-selection recommended: no")
    return exit_code


def _run_marketplace(args: argparse.Namespace) -> int:
    """The ``repro-crowd marketplace`` subcommand: the multi-campaign orchestrator."""
    from repro.marketplace import (
        CampaignSpec,
        ChurnConfig,
        JournalError,
        MarketplaceConfig,
        MarketplaceOrchestrator,
    )
    from repro.stats.rng import derive_seed

    if args.resume and args.journal is None:
        print("repro-crowd marketplace: error: --resume requires --journal", file=sys.stderr)
        return 2
    telemetry = None
    if args.metrics_out is not None:
        from repro.obs import create_telemetry

        telemetry = create_telemetry()
    try:
        # Campaign names must be journal-safe (no scenario separator) and
        # unique even when the same dataset appears twice, so they are
        # index-prefixed sanitised dataset names: "c0-s-1", "c1-s-1:drift20"
        # becomes "c1-s-1-drift20".
        specs = [
            CampaignSpec(
                name=f"c{index}-{dataset.lower().replace(SCENARIO_SEPARATOR, '-')}",
                dataset=dataset,
                selector=args.selector,
                k=args.k,
                seed=derive_seed(args.seed, "marketplace", "campaign", index, dataset),
            )
            for index, dataset in enumerate(args.datasets)
        ]
        orchestrator = MarketplaceOrchestrator(
            specs,
            config=MarketplaceConfig(
                router=args.router,
                votes_per_task=args.votes,
                tasks_per_tick=args.tasks_per_tick,
                total_tasks=args.total_tasks,
            ),
            churn=ChurnConfig(arrival_rate=args.arrival_rate, departure_rate=args.departure_rate),
            journal_path=args.journal,
            seed=args.seed,
            telemetry=telemetry,
        )
        report = orchestrator.run(args.ticks, tick_batch=args.tick_batch, resume=args.resume)
    except (JournalError, KeyError, TypeError, ValueError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else exc
        print(f"repro-crowd marketplace: error: {message}", file=sys.stderr)
        return 2
    if telemetry is not None:
        _write_metrics_snapshot(args.metrics_out, telemetry)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    market = report.marketplace
    print(
        f"ran {len(report.campaigns)} campaigns for {report.n_ticks} ticks "
        f"in {report.elapsed_s:.2f}s"
    )
    print(
        f"marketplace churn: {market['arrivals_admitted']} admitted, "
        f"{market['arrivals_rejected']} rejected, {market['departures']} departed "
        f"({market['workers_present']}/{market['workers_total']} workers present)"
    )
    for campaign in report.campaigns:
        accuracy = campaign["label_accuracy"]
        accuracy_text = "n/a" if accuracy is None else f"{accuracy:.3f}"
        print(
            f"  {campaign['name']} [{campaign['phase']}]: "
            f"{campaign['tasks_routed']} tasks routed, {campaign['n_labels']} labels "
            f"(accuracy {accuracy_text}), {campaign['reselections']} re-selections, "
            f"{campaign['invalidated_votes']} votes invalidated"
        )
    if args.journal is not None:
        print(f"journal: {args.journal}")
    return 0


def _run_robustness(args: argparse.Namespace) -> int:
    """The ``repro-crowd robustness`` subcommand: the contamination sweep."""
    from repro.experiments import format_table
    from repro.experiments.robustness import DEFAULT_CONTAMINATION_RATES, run_robustness
    from repro.experiments.runner import WorkUnit

    if args.resume and args.store is None:
        print("repro-crowd robustness: error: --resume requires --store", file=sys.stderr)
        return 2
    rates = args.rates if args.rates is not None else list(DEFAULT_CONTAMINATION_RATES)

    def _progress(done: int, total: int, unit: Optional[WorkUnit]) -> None:
        if unit is None:
            print(f"resumed: {done}/{total} work units already in {args.store}", file=sys.stderr)
        else:
            print(f"[{done}/{total}] {unit.dataset} {unit.method} rep={unit.repetition}", file=sys.stderr)

    try:
        rows = run_robustness(
            args.datasets,
            behavior=args.behavior,
            contamination_rates=rates,
            config=_config_from_args(args),
            methods=args.methods,
            store_path=args.store,
            resume=args.resume,
            progress=_progress if args.progress else None,
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else exc
        print(f"repro-crowd robustness: error: {message}", file=sys.stderr)
        return 2
    print(format_table(rows))
    return 0


def _list_behaviors(args: argparse.Namespace) -> int:
    """The ``repro-crowd behaviors`` subcommand: registry listing."""
    names = behavior_names()
    if args.json:
        print(json.dumps({name: describe_behavior(name) for name in names}, indent=2, sort_keys=True))
        return 0
    print("registered worker behaviors:")
    for name in names:
        print(f"  {describe_behavior(name)}")
    return 0


def _list_scenarios(args: argparse.Namespace) -> int:
    """The ``repro-crowd scenarios`` subcommand: recipes + grammar."""
    if args.json:
        print(
            json.dumps(
                {name: dict(mix) for name, mix in sorted(SCENARIO_RECIPES.items())},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print("named scenario recipes (usable as '<dataset>:<recipe>' or --scenario <recipe>):")
    for name, mix in sorted(SCENARIO_RECIPES.items()):
        composition = ", ".join(f"{int(f * 100)}% {b}" for b, f in sorted(mix.items())) or "no contamination"
        print(f"  {name}: {composition}")
    print()
    print("recipe grammar: <behavior><percent> joined with '+', e.g. 'spam10' or 'adversarial20+drift10'")
    print(f"behaviors: {', '.join(behavior_names())} (aliases: spam, adv, drift, sleep)")
    print("examples: repro-crowd run --dataset S-1 --scenario spam10")
    print("          repro-crowd robustness --datasets S-1 --behavior adversarial --rates 0 0.2 0.4")
    return 0


def _list_metrics(args: argparse.Namespace) -> int:
    """The ``repro-crowd metrics`` subcommand: the telemetry catalog."""
    from repro.obs.catalog import catalog_json, catalog_rows

    if args.json:
        print(catalog_json())
        return 0
    rows = catalog_rows()
    print(f"metric catalog ({len(rows)} metrics; collect with --metrics-out on serve/marketplace):")
    for row in rows:
        labels = f" [{', '.join(row['labels'])}]" if row["labels"] else ""
        volatile = " (volatile)" if row["volatile"] else ""
        print(f"  {row['name']} ({row['kind']}{volatile}){labels}: {row['help']}")
        print(f"    emitted by {row['module']}")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """The ``repro-crowd lint`` subcommand: the determinism & contract gate."""
    from repro.analysis import analyze, describe_rule, format_json, format_text

    if args.list_rules:
        for rule_id in rule_names():
            print(describe_rule(rule_id))
        return 0
    try:
        report = analyze(
            args.paths or None,
            rules=[resolve_rule_name(name) for name in args.rules] if args.rules else None,
        )
    except FileNotFoundError as exc:
        print(f"repro-crowd lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(report))
    else:
        print(format_text(report, show_suppressed=args.show_suppressed))
    return report.exit_code(strict=args.strict)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.experiment == "run":
        return _run_campaign(args)
    if args.experiment == "serve":
        return _serve_campaign(args)
    if args.experiment == "marketplace":
        return _run_marketplace(args)
    if args.experiment == "experiments":
        return _run_experiments(args)
    if args.experiment == "robustness":
        return _run_robustness(args)
    if args.experiment == "behaviors":
        return _list_behaviors(args)
    if args.experiment == "scenarios":
        return _list_scenarios(args)
    if args.experiment == "metrics":
        return _list_metrics(args)
    if args.experiment == "lint":
        return _run_lint(args)

    # Artefact regeneration commands share ExperimentConfig-shaped options.
    from repro.experiments import (
        format_table,
        results_to_markdown,
        run_correlation_recovery,
        run_figure5,
        run_figure6,
        run_figure7,
        run_runtime,
        run_table2,
        run_table4,
        run_table5,
        run_training_gain,
    )

    try:
        # ExperimentConfig validates n_repetitions / n_jobs eagerly; a bad
        # value is a user error, not a crash.
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"repro-crowd {args.experiment}: error: {exc}", file=sys.stderr)
        return 2
    datasets: Optional[List[str]] = args.datasets

    if args.experiment == "table2":
        print(format_table(run_table2(datasets)))
    elif args.experiment == "table4":
        output = run_table4(datasets)
        print("Per-domain moments (mean, std):")
        print(format_table(output["moments"]))
        print()
        print("Consistency against RW-1 (bucketed Pearson):")
        print(format_table(output["consistency"]))
    elif args.experiment == "table5":
        results = run_table5(datasets, config=config)
        print(results_to_markdown(results))
    elif args.experiment == "figure5":
        print(format_table(run_figure5(datasets, config=config)))
    elif args.experiment == "figure6":
        print(format_table(run_figure6(datasets, config=config)))
    elif args.experiment == "figure7":
        print(format_table(run_figure7(datasets, config=config)))
    elif args.experiment == "runtime":
        print(format_table(run_runtime(datasets, config=config)))
    elif args.experiment == "correlation":
        print(format_table(run_correlation_recovery(datasets, config=config)))
    elif args.experiment == "training-gain":
        print(format_table(run_training_gain(datasets, config=config)))
    else:  # pragma: no cover - argparse restricts the choices
        print(f"unknown command {args.experiment!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
