"""CLI entry point: ``python -m repro.sim --seed N``.

Runs one deterministic simulation (or the crash-schedule explorer) and
prints a byte-stable report: same seed, same output, every time — CI runs
it twice and diffs.  ``--replay`` executes an explicit schedule (as printed
in a failure message) instead of the seeded scheduler.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.sim.explorer import DEFAULT_CRASH_SITES, explore_crash_schedules
from repro.sim.harness import SimConfig, run_simulation
from repro.sim.scheduler import Schedule, SimFailure
from repro.sim.shrink import shrink_schedule

SCENARIOS = {
    "canonical": SimConfig.canonical,
    "crasher": lambda: SimConfig.canonical().with_crasher(),
    "txn": lambda: replace(SimConfig.canonical(), txn_writers=1),
    # Snapshot transactions against plain updaters that delete any live key,
    # with a crash up front: first-committer-wins must see the plain writes
    # (2 of seeds 0-2999 used to commit a MODIFY over a plain DELETE).
    "txn-vs-plain": lambda: replace(
        SimConfig.canonical(),
        updaters=2,
        scanners=1,
        flushers=1,
        migrators=1,
        crashers=1,
        txn_writers=1,
        update_ops=5,
        scans=1,
        scan_batch=4,
        flush_ops=2,
        migrate_ops=0,
        crasher_idle=0,
    ),
    "heavy": lambda: replace(
        SimConfig.canonical(), updaters=2, scanners=2, update_ops=60
    ),
    # Columnar-kernel stress: enough updates to materialize multi-block
    # runs, a tiny partition size so every scan's merge splits into several
    # kernel partitions, and extra scanners so partition boundaries meet
    # concurrent flush/migration steps.
    "kernels": lambda: replace(
        SimConfig.canonical(),
        scanners=2,
        update_ops=80,
        flush_ops=6,
        kernel_partition_blocks=1,
    ),
    # Serving-path stress: a quota-gated front door serving tenant range
    # queries (one snapshot timestamp each, model-checked per request)
    # interleaved with updates, flushes, migrations and a crash+recover.
    "serving": lambda: replace(
        SimConfig.canonical(),
        servers=1,
        serve_requests=10,
        update_ops=50,
        crashers=1,
    ),
    # Replication chaos: a 3-way replica set beside the main engine,
    # driven through updates, replica kills (often the primary, forcing
    # failover), recover + catch-up rejoins, and reads on random ONLINE
    # replicas — every read model-checked, final state byte-identical
    # across all replicas.
    "replication": lambda: replace(
        SimConfig.canonical(),
        replicators=1,
        replica_ops=30,
    ),
    # Run-merge stress: many flushes and no migration pile up more 1-pass
    # runs than the scan preamble's run budget allows, so scans merge the
    # earliest runs into 2-pass runs (the RUN_MERGE protocol) between
    # updates and a crash+recover; the explorer sweeps the two
    # ``masm.merge.*`` crash sites over this schedule.  Eight rows keep the
    # key space small enough that keys collect versions for merges to fold.
    "merge": lambda: replace(
        SimConfig.canonical(),
        rows=8,
        migrators=0,
        flush_ops=12,
        update_ops=60,
        crashers=1,
    ),
    # Durability churn: a 3-way replica set driven through checkpointed
    # WAL truncation, total replica wipes revived by snapshot bootstrap,
    # rejoins that must cross the truncation fence, and silent bit-flips
    # chased by anti-entropy peer repair — every read model-checked.
    "durability": lambda: replace(
        SimConfig.canonical(),
        durability_actors=1,
        durability_ops=30,
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Deterministic MaSM simulation: schedule = f(seed, config).",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="canonical"
    )
    parser.add_argument(
        "--replay",
        metavar="SCHEDULE",
        help="comma-separated actor choices from a failure report",
    )
    parser.add_argument(
        "--explore-crashes",
        action="store_true",
        help=f"sweep crash sites {DEFAULT_CRASH_SITES} over every prefix",
    )
    parser.add_argument(
        "--stride",
        type=int,
        default=1,
        help="sample every Nth schedule prefix when exploring (default 1)",
    )
    parser.add_argument(
        "--sweep",
        type=int,
        metavar="N",
        help="run seeds SEED..SEED+N-1 and report the ones that fail",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="on failure, delta-debug the schedule to a minimal reproducer",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON"
    )
    args = parser.parse_args(argv)
    config = SCENARIOS[args.scenario]()

    if args.explore_crashes:
        report = explore_crash_schedules(
            config, seed=args.seed, prefix_stride=args.stride
        )
        print(report.summary())
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(report.to_json() + "\n")
        return 1 if report.failures else 0

    if args.sweep:
        failed = 0
        for seed in range(args.seed, args.seed + args.sweep):
            try:
                run_simulation(config, seed=seed)
            except SimFailure as failure:
                failed += 1
                sys.stdout.write(str(failure) + "\n")
        print(
            f"swept seeds {args.seed}..{args.seed + args.sweep - 1} of "
            f"{args.scenario!r}: {failed} failed"
        )
        return 1 if failed else 0

    schedule = Schedule.from_text(args.replay) if args.replay else None
    try:
        run = run_simulation(config, seed=args.seed, schedule=schedule)
    except SimFailure as failure:
        sys.stdout.write(str(failure) + "\n")
        if args.shrink:
            def fails(candidate: Schedule) -> bool:
                try:
                    run_simulation(config, seed=args.seed, schedule=candidate)
                except SimFailure:
                    return True
                return False

            minimal = shrink_schedule(failure.schedule, fails)
            sys.stdout.write(
                f"shrunk to {len(minimal.choices)} choices: "
                f"{minimal.to_text()}\n"
            )
        return 1
    sys.stdout.write(run.report.to_text())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(
                {
                    "seed": run.report.seed,
                    "verdict": run.report.verdict,
                    "updates_acknowledged": run.report.updates_acknowledged,
                    "final_records": run.report.final_records,
                    "chains_folded": run.report.chains_folded,
                    "schedule": run.report.schedule.to_text(),
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
