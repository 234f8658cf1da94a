"""Committed mutants: each row breaks the program on purpose, and the tests
it names must catch it.

A row is a name, a file under ``src/``, an exact snippet of that file, its
replacement, and the pytest node ids that must fail once the snippet is
replaced.  ``python tests/mutants.py [NAME ...]`` (from the repository root;
every row when no name is given) copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies one row to the copy
— never to the working tree — and runs each named node there, one pytest
process per node.  A row fails when its snippet does not occur exactly once
in its file, when one of its nodes no longer exists, or when one of its
nodes passes.  The exit status is 0 when every row's nodes all fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant(
        "replay marks the whole range",
        "repro/core/manifest.py",
        "        return replace(self, runs=tuple(map(resolve, self.runs)))",
        "        return replace(self, runs=tuple(map(resolve, self.runs)),"
        " spans=self.spans and ((0, 2**63 - 1),))",
        (
            "tests/test_recovery.py::test_deferred_range_migration_survives_a_restart",
            "tests/test_recovery.py::test_migration_under_an_open_scan_survives_a_restart",
        ),
    ),
    Mutant(
        "the codec drops spans",
        "repro/core/manifest.py",
        "        count = _SPAN_COUNT.pack(-1 if spans is None else len(spans))",
        "        count = _SPAN_COUNT.pack(-1)",
        (
            "tests/test_prop_codec.py::test_every_logged_edit_round_trips_through_its_frame",
            "tests/test_recovery.py::test_deferred_range_migration_survives_a_restart",
        ),
    ),
    Mutant(
        "no version bump for RunFlushed",
        "repro/core/manifest.py",
        "        self.version += 1",
        "        self.version += not isinstance(edit, RunFlushed)",
        (
            "tests/test_sim.py::test_merge_scenario_folds_a_chain",
            "tests/test_governor.py::test_governed_stalls_beat_stop_the_world",
        ),
    ),
    Mutant(
        "runs prepended",
        "repro/core/manifest.py",
        "            self.runs += (run,)",
        "            self.runs = (run, *self.runs)",
        (
            "tests/test_compaction.py::test_degenerate_fallback_uses_first_two_runs",
            "tests/test_sim.py::test_merge_scenario_folds_a_chain",
        ),
    ),
    Mutant(
        "orphan files kept",
        "repro/txn/recovery.py",
        "        elif loaded.min_ts > flushed_through:",
        "        elif False:",
        (
            "tests/test_faults.py::test_crash_point_orphan_run_discarded_on_recovery",
            "tests/test_failure_injection.py::test_plan_driven_crash_between_run_write_and_log",
        ),
    ),
    Mutant(
        "the merge-victim counter rule dropped",
        "repro/txn/recovery.py",
        '            retired.update((v.name, "merge_victims_discarded") for v in edit.victims)',
        "            pass",
        (
            "tests/test_recovery.py::test_merge_victims_discarded_on_recovery",
            "tests/test_compaction.py::test_crash_after_product_write_discards_the_victims",
        ),
    ),
)

#: pytest's exit status when a node ran and failed.
FAILED = 1


def run(mutant: Mutant) -> list[str]:
    """Apply ``mutant`` to a scratch copy and run its nodes: the problems."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / "src" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return [f"snippet occurs {text.count(mutant.old)} times in {mutant.file}"]
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONHASHSEED="0")
        problems = []
        for node in mutant.nodes:
            status = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", node],
                cwd=copy,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=900,
            ).returncode
            if status == 0:
                problems.append(f"{node} passes")
            elif status in (4, 5):  # usage error (not found) / nothing collected
                problems.append(f"{node} does not exist")
            elif status != FAILED:
                problems.append(f"{node}: pytest exited {status}")
        return problems


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        problems = run(mutant)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {mutant.name}" + "".join(
            f"\n       {problem}" for problem in problems
        ))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
