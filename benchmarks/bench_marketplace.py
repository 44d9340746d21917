"""Marketplace benchmark: orchestrator tick throughput and journal latency.

Times the two marketplace hot paths in isolation:

* **orchestration** — full ticks of the multi-campaign event loop
  (churn draws, task submission, answer delivery, aggregation) across
  campaign counts, reported as ticks/second, with and without the
  journal on disk;
* **journal** — durable ``append_ticks`` latency across tick-batch
  sizes, showing how batching amortises the per-append fsync without
  changing the journal bytes;
* **telemetry overhead** — journaled orchestration with telemetry off
  vs on (interleaved arms, best-of-repeats per arm).  ``--max-overhead-pct``
  turns the measured loss into a regression gate.

Run it as a script (the pytest suite does not collect it):

    PYTHONPATH=src python benchmarks/bench_marketplace.py
    PYTHONPATH=src python benchmarks/bench_marketplace.py \
        --campaigns 1 2 4 --ticks 100 --output /tmp/bench.json

The machine-readable output seeds the repo's perf trajectory
(``BENCH_marketplace.json``); the schema is stamped into the payload as
``schema_version``.
"""


from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from conftest import assert_bench_environment, bench_environment

from repro.marketplace import (
    CampaignSpec,
    ChurnConfig,
    EventJournal,
    MarketplaceConfig,
    MarketplaceOrchestrator,
)
from repro.obs import create_telemetry
from repro.obs.timing import perf_counter

SCHEMA_VERSION = 4

DEFAULT_CAMPAIGN_COUNTS = (1, 2, 4)
BENCH_DATASETS = ("S-1", "S-2")


def build_orchestrator(
    n_campaigns: int,
    n_ticks: int,
    journal_path: Optional[Path],
    seed: int,
    telemetry=None,
) -> MarketplaceOrchestrator:
    """A benchmark marketplace: every campaign keeps serving for the whole run."""
    tasks_per_tick = 2
    specs = [
        CampaignSpec(
            name=f"c{index}",
            dataset=BENCH_DATASETS[index % len(BENCH_DATASETS)],
            selector="us",
            k=5,
            seed=seed + index,
        )
        for index in range(n_campaigns)
    ]
    return MarketplaceOrchestrator(
        specs,
        config=MarketplaceConfig(
            total_tasks=n_ticks * tasks_per_tick,
            tasks_per_tick=tasks_per_tick,
        ),
        churn=ChurnConfig(arrival_rate=0.5, departure_rate=0.02),
        journal_path=journal_path,
        seed=seed,
        telemetry=telemetry,
    )


def time_orchestrator(
    n_campaigns: int, n_ticks: int, repeats: int, journaled: bool
) -> Dict[str, float]:
    """Best-of-``repeats`` tick throughput for one campaign count."""
    times: List[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            journal_path = Path(tmp) / f"bench{repeat}.jsonl" if journaled else None
            orchestrator = build_orchestrator(n_campaigns, n_ticks, journal_path, seed=repeat)
            start = perf_counter()
            orchestrator.run(n_ticks, tick_batch=8)
            times.append(perf_counter() - start)
    best = min(times)
    return {
        "run_s": best,
        "ticks_per_second": n_ticks / best if best > 0 else float("inf"),
    }


def time_telemetry_overhead(n_campaigns: int, n_ticks: int, repeats: int) -> Dict[str, object]:
    """Journaled orchestration throughput with telemetry off vs on.

    The two arms are interleaved inside each repeat so drift (cache
    warmth, CPU frequency) hits both equally; best-of-repeats is kept
    per arm.
    """
    best: Dict[str, float] = {"off": float("inf"), "on": float("inf")}
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            for arm in ("off", "on"):
                journal_path = Path(tmp) / f"overhead-{arm}{repeat}.jsonl"
                telemetry = create_telemetry() if arm == "on" else None
                orchestrator = build_orchestrator(
                    n_campaigns, n_ticks, journal_path, seed=repeat, telemetry=telemetry
                )
                start = perf_counter()
                orchestrator.run(n_ticks, tick_batch=8)
                best[arm] = min(best[arm], perf_counter() - start)
    off_tps = n_ticks / best["off"] if best["off"] > 0 else float("inf")
    on_tps = n_ticks / best["on"] if best["on"] > 0 else float("inf")
    return {
        "campaigns": n_campaigns,
        "n_ticks": n_ticks,
        "off_ticks_per_second": off_tps,
        "on_ticks_per_second": on_tps,
        "overhead_pct": 100.0 * (off_tps - on_tps) / off_tps if off_tps > 0 else 0.0,
    }


def synthetic_tick_record(tick: int) -> Dict[str, object]:
    """A tick record shaped like the orchestrator's (for journal timing)."""
    return {
        "type": "tick",
        "tick": tick,
        "departures": [],
        "invalidations": [],
        "arrivals": [{"worker_id": f"mkt-{tick:03d}", "observed": 0.75, "tier": "qualified", "admitted": True}],
        "campaigns": [
            {"campaign": f"c{index}", "phase": "serving", "submitted": 2, "delivered": 2}
            for index in range(4)
        ],
    }


def time_journal(n_records: int, tick_batch: int, repeats: int) -> Dict[str, float]:
    """Durable append throughput of the journal at one tick-batch size."""
    records = [synthetic_tick_record(tick) for tick in range(n_records)]
    times: List[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            journal = EventJournal(Path(tmp) / f"journal{repeat}.jsonl")
            journal.begin({"bench": True})
            start = perf_counter()
            for offset in range(0, n_records, tick_batch):
                journal.append_ticks(records[offset : offset + tick_batch])
            times.append(perf_counter() - start)
    best = min(times)
    return {
        "append_s": best,
        "records_per_second": n_records / best if best > 0 else float("inf"),
        "fsyncs": -(-n_records // tick_batch),
    }


def run_benchmark(
    campaign_counts: Sequence[int],
    n_ticks: int,
    repeats: int,
    n_records: int,
) -> Dict[str, object]:
    """The full benchmark payload."""
    orchestration: List[Dict[str, object]] = []
    for journaled in (False, True):
        for n_campaigns in campaign_counts:
            result = time_orchestrator(n_campaigns, n_ticks, repeats, journaled)
            orchestration.append({"campaigns": n_campaigns, "journaled": journaled, **result})
            print(
                f"  campaigns={n_campaigns} journal={'on ' if journaled else 'off'} "
                f"{result['ticks_per_second']:>10,.0f} ticks/s",
                file=sys.stderr,
            )
    journal: List[Dict[str, object]] = []
    for tick_batch in (1, 8, 64):
        result = time_journal(n_records, tick_batch, repeats)
        journal.append({"tick_batch": tick_batch, **result})
        print(
            f"  journal batch={tick_batch:<3} {result['records_per_second']:>10,.0f} records/s "
            f"({result['fsyncs']} fsyncs)",
            file=sys.stderr,
        )
    overhead = time_telemetry_overhead(max(campaign_counts), n_ticks, repeats)
    print(
        f"  telemetry overhead campaigns={overhead['campaigns']} "
        f"off {overhead['off_ticks_per_second']:>10,.0f} ticks/s, "
        f"on {overhead['on_ticks_per_second']:>10,.0f} ticks/s "
        f"({overhead['overhead_pct']:+.2f}%)",
        file=sys.stderr,
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "campaign_counts": list(campaign_counts),
            "n_ticks": n_ticks,
            "repeats": repeats,
            "n_journal_records": n_records,
        },
        "environment": bench_environment(),
        "orchestration": orchestration,
        "journal": journal,
        "telemetry_overhead": overhead,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--campaigns", type=int, nargs="+", default=list(DEFAULT_CAMPAIGN_COUNTS))
    parser.add_argument("--ticks", type=int, default=150, help="ticks per orchestration cell")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best is kept)")
    parser.add_argument("--records", type=int, default=512, help="records appended per journal cell")
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "regression gate: exit non-zero when enabled-telemetry orchestration "
            "throughput loses more than this percentage"
        ),
    )
    parser.add_argument("--output", default="BENCH_marketplace.json", help="JSON output path")
    args = parser.parse_args(argv)

    payload = run_benchmark(
        campaign_counts=args.campaigns,
        n_ticks=args.ticks,
        repeats=args.repeats,
        n_records=args.records,
    )
    assert_bench_environment(payload)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if args.max_overhead_pct is not None:
        worst = payload["telemetry_overhead"]["overhead_pct"]  # type: ignore[index]
        if worst > args.max_overhead_pct:
            print(
                f"regression gate FAILED: telemetry overhead {worst:.2f}% "
                f"exceeds maximum {args.max_overhead_pct}%",
                file=sys.stderr,
            )
            return 1
        print(
            f"regression gate passed: telemetry overhead {worst:.2f}% "
            f"<= {args.max_overhead_pct}%",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
