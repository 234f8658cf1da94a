#!/usr/bin/env python3
"""End-to-end and per-layer benchmark driver.

One workload, the way the benchmark contract runs it::

    python3 benchmarks/e2e/run.py --workload mixed --seed 7 --seconds 15 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) and,
as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

All four workloads, each in its own subprocess::

    python3 benchmarks/e2e/run.py --seed 7 [--smoke] [--traced] [--out F]

prints one table, writes ``--out`` as JSON, and with ``--traced`` also writes
``results/spans.<workload>.jsonl`` and the per-layer budget.  ``--check-only``
runs just the correctness harness at smoke size.  Any wrong answer, failed
operation or failed final check makes the exit status non-zero.

No ``PYTHONPATH`` is needed: the driver finds ``src/`` next to
``benchmarks/`` in its own checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

SMOKE_SECONDS = 1.5


def _import_benchmark():
    """The benchmark's modules, importable only in a full checkout."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {source}/repro is missing")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import harness
    import spans
    import workloads

    return harness, spans, workloads


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- one workload
def _tamper(records: list, response_no: int) -> list:
    """Test hook: drop the last row of every seventh response."""
    return records[:-1] if response_no % 7 == 0 and records else records


def run_one(args) -> int:
    harness, spans, workloads = _import_benchmark()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tamper = _tamper if args.tamper else None
    if args.trace:
        # The same work twice, recorder off then on: the first gives the
        # raw machine numbers and the denominator of trace_overhead.
        sizes = harness.Sizes(
            scale=args.seconds / workloads.REF_SECONDS / 2, setups=1, recoveries=1
        )
        recorder = spans.Recorder(keep_spans=bool(args.spans_out))
        untraced = harness.run_pass(workload, args.seed, sizes, tamper=tamper)
        traced = harness.run_pass(workload, args.seed, sizes, recorder, tamper=tamper)
        metrics = harness.per_layer(traced, untraced)
        passes = [untraced, traced]
        if args.spans_out:
            recorder.write_jsonl(args.spans_out)
        print("BUDGET " + json.dumps(harness.budget(traced)))
    else:
        sizes = harness.Sizes.for_seconds(args.seconds)
        result = harness.run_pass(workload, args.seed, sizes, tamper=tamper)
        metrics = harness.end_to_end(result)
        passes = [result]
        print("PLAN " + json.dumps(harness.plan_digest(result)))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for failure in p.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    if not args.check_only:
        for name, (value, unit) in metrics.items():
            print(f"{workload.name:12s} {name:46s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------ all workloads
def _child(workload: str, seed: int, seconds: float, trace: int, extra: list[str]):
    """Run one workload in its own process; returns (exit code, lines)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout.splitlines()


def _tagged(lines: list[str], tag: str):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def run_all(args) -> int:
    contract = load_contract()
    seconds = SMOKE_SECONDS if (args.smoke or args.check_only) else args.seconds
    extra = (["--tamper"] if args.tamper else []) + (["--check-only"] if args.check_only else [])
    report: dict = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    status = 0
    for entry in contract["workloads"]:
        name = entry["name"]
        code, lines = _child(name, args.seed, seconds, 0, extra)
        if not lines:
            print(f"{name}: no output (exit {code})")
            status = 1
            continue
        summary = json.loads(lines[-1])
        record = {"end_to_end": summary, "plan": _tagged(lines, "PLAN")}
        status |= code
        if args.traced and not args.check_only:
            RESULTS.mkdir(exist_ok=True)
            spans = RESULTS / f"spans.{name}.jsonl"
            code, lines = _child(name, args.seed, seconds, 1, extra + ["--spans-out", str(spans)])
            status |= code
            if lines:
                record["per_layer"] = json.loads(lines[-1])
                record["budget"] = _tagged(lines, "BUDGET")
        report["workloads"][name] = record
    _print_report(report, contract, args.check_only)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if all("budget" in record for record in report["workloads"].values()):
        (RESULTS / "budget.md").write_text(budget_markdown(report))
        print(f"\nwrote {RESULTS / 'budget.md'} and {RESULTS}/spans.<workload>.jsonl")
    return 1 if status else 0


def budget_markdown(report: dict) -> str:
    """Layer x workload table of wall self-time shares, from the traced pass."""
    names = list(report["workloads"])
    budgets = {n: report["workloads"][n]["budget"] for n in names}
    layers = sorted({layer for b in budgets.values() for layer in b["layers"]})

    def share(name: str, layer: str) -> float:
        return budgets[name]["layers"].get(layer, {}).get("wall_share", 0.0)

    lines = [
        f"# Per-layer budget (seed {report['seed']}, --seconds {report['seconds']})",
        "",
        "Share of traced wall self time (at reference machine speed) over the timed",
        "rounds plus the outage/recovery cycle; `harness` is the driver itself plus",
        "everything no target covers.  Simulated self time (ms) in parentheses: device",
        "seconds stay with the layer that issued the I/O.",
        "",
        "| layer | " + " | ".join(names) + " | largest on | smallest on |",
        "|---|" + "---:|" * len(names) + "---|---|",
    ]
    for layer in layers:
        cells = []
        for n in names:
            entry = budgets[n]["layers"].get(layer)
            if entry is None:
                cells.append("0 spans")
            else:
                cells.append(f"{entry['wall_share'] * 100:.1f}% ({entry['sim_ms']:.0f})")
        largest = max(names, key=lambda n: share(n, layer))
        smallest = min(names, key=lambda n: share(n, layer))
        lines.append(f"| `{layer}` | " + " | ".join(cells) + f" | {largest} | {smallest} |")
    lines += ["", "| workload | traced wall ms (measured) | sum of self ms | trace overhead |",
              "|---|---:|---:|---:|"]
    for n in names:
        overhead = report["workloads"][n]["per_layer"]["metrics"]["machine.trace_overhead"]["value"]
        lines.append(
            f"| {n} | {budgets[n]['measured_wall_ms']:.0f} | {budgets[n]['self_wall_ms']:.0f} "
            f"| {overhead:.2f}x |"
        )
    return "\n".join(lines) + "\n"


def _print_report(report: dict, contract: dict, check_only: bool) -> None:
    names = list(report["workloads"])
    for name in names:
        summary = report["workloads"][name]["end_to_end"]
        attempted = summary["attempted"]
        share = summary["failed"] / attempted if attempted else 1.0
        print(f"{name}: correct={summary['correct']} attempted={attempted} "
              f"failed={summary['failed']} failed_share={share:.6f}")
    if check_only:
        return
    for group, key in (("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
        if not all(key in report["workloads"][n] for n in names):
            continue
        print()
        print(f"{group:46s} {'unit':8s}" + "".join(f"{n:>16s}" for n in names))
        for metric in contract[group]:
            cells = []
            for n in names:
                value = report["workloads"][n][key]["metrics"].get(metric["name"])
                cells.append(f"{value['value']:16.6g}" if value else f"{'-':>16s}")
            print(f"{metric['name']:46s} {metric['unit']:8s}" + "".join(cells))


# ---------------------------------------------------------------------- CLI
def parse(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in-process (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed work at reference machine speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"all workloads at --seconds {SMOKE_SECONDS}")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced pass, spans and budget")
    parser.add_argument("--check-only", action="store_true",
                        help="only the correctness harness, at smoke size")
    parser.add_argument("--out", help="all-workloads mode: write the report here as JSON")
    parser.add_argument("--spans-out", help="--trace 1: write the spans here as JSON lines")
    parser.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def main(argv: list[str]) -> int:
    args = parse(argv)
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same process id, same streams, nothing left behind to wait for.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
