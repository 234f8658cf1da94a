"""Tests of the benchmark itself (``pytest benchmarks/e2e``).

The span recorder is tested on toy callables; the driver is tested end to
end at smoke size: a corrupted answer must fail the run, one seed must give
the same simulated numbers twice and another seed different requests, and
the names in ``BENCHMARK.json`` must be the names the driver prints.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import spans
from spans import COUNT, SIM_SELF, WALL, WALL_SELF, Rebinding, Recorder, Target

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMOKE = "1.5"


# ------------------------------------------------------------ span recorder
class FakeClock:
    now = 0.0


def spin(seconds: float) -> None:
    import time

    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def toy_module() -> types.ModuleType:
    """A stand-in for a ``repro`` module with one of each callable shape."""
    mod = types.ModuleType("repro._e2e_toy")
    clock = FakeClock()

    def leaf():
        spin(0.002)
        clock.now += 1.0

    def device():
        clock.now += 0.5

    class Layer:
        def outer(self):
            spin(0.003)
            mod.leaf()
            mod.device()
            return "done"

        def rows(self):
            spin(0.001)  # the preamble

            def gen():
                for i in range(3):
                    mod.leaf()
                    yield i

            return gen()

        def pages(self):
            for i in range(4):
                spin(0.001)
                yield [i] * 10

    mod.leaf, mod.device, mod.Layer, mod.clock = leaf, device, Layer, clock
    sys.modules[mod.__name__] = mod
    return mod


TOY_TARGETS = (
    Target("toy.layer", "outer", "repro._e2e_toy:Layer", "outer"),
    Target("toy.layer", "rows", "repro._e2e_toy:Layer", "rows", kind="drain"),
    Target("toy.layer", "pages", "repro._e2e_toy:Layer", "pages", kind="steps",
           post=lambda rec, args, item: rec.count("toy.rows", len(item))),
    Target("toy.leaf", "leaf", "repro._e2e_toy", "leaf"),
    Target("storage.device", "io", "repro._e2e_toy", "device", keep=False, transparent=True),
    Target("toy.gone", "renamed", "repro._e2e_toy:Layer", "no_such_method"),
)


@pytest.fixture
def toy():
    mod = toy_module()
    yield mod
    del sys.modules[mod.__name__]


def test_self_time_is_duration_minus_children(toy):
    rec = Recorder(clock=toy.clock)
    with Rebinding(rec, TOY_TARGETS):
        with rec.root("harness.request", request_id=7):
            assert toy.Layer().outer() == "done"
    rec.fold(1.0)
    outer, leaf = rec.totals["toy.layer.outer"], rec.totals["toy.leaf.leaf"]
    assert outer[COUNT] == leaf[COUNT] == 1
    assert outer[WALL] >= 0.005 and leaf[WALL] >= 0.002
    device_wall = rec.totals["storage.device.io"][WALL]
    assert outer[WALL_SELF] == pytest.approx(outer[WALL] - leaf[WALL] - device_wall)
    # Simulated: the leaf's own second is the leaf's; the device's half
    # second stays with the layer that issued the I/O.
    assert leaf[SIM_SELF] == pytest.approx(1.0)
    assert outer[SIM_SELF] == pytest.approx(0.5)
    assert rec.totals["storage.device.io"][SIM_SELF] == 0.0
    # Self times of everything add up to the root's duration.
    root = rec.totals["harness.request"]
    assert sum(row[WALL_SELF] for row in rec.totals.values()) == pytest.approx(root[WALL])
    # Kept spans carry ids, parents and the request id; per-update style
    # targets (keep=False) are aggregated only.
    by_name = {s[3]: s for s in rec.spans}
    assert "storage.device.io" not in by_name
    assert by_name["toy.leaf.leaf"][1] == by_name["toy.layer.outer"][0]
    assert by_name["toy.layer.outer"][1] == by_name["harness.request"][0]
    assert {s[2] for s in rec.spans} == {7}


def test_iterator_proxies(toy):
    rec = Recorder(clock=toy.clock)
    with Rebinding(rec, TOY_TARGETS):
        with rec.root("harness.request"):
            layer = toy.Layer()
            assert list(layer.rows()) == [0, 1, 2]
            assert sum(len(page) for page in layer.pages()) == 40
    rec.fold(2.0)  # wall fields are scaled, counts and simulated are not
    call, drain = rec.totals["toy.layer.rows"], rec.totals["toy.layer.rows.drain"]
    assert call[COUNT] == drain[COUNT] == 1
    assert call[WALL] >= 2 * 0.001
    # The drain span runs from first pull to exhaustion: the three leaf
    # calls made while draining are its children.
    assert rec.totals["toy.leaf.leaf"][COUNT] == 3
    assert drain[WALL_SELF] == pytest.approx(drain[WALL] - rec.totals["toy.leaf.leaf"][WALL])
    assert drain[SIM_SELF] == pytest.approx(0.0)
    # One span per page, plus the pull that found the generator exhausted.
    assert rec.totals["toy.layer.pages"][COUNT] == 5
    assert rec.counts["toy.rows"] == 40
    assert spans.layer_of("toy.layer.rows.drain") == "toy.layer"


def test_interleaved_drains_keep_the_books_balanced(toy):
    """A k-way merge pulls several drains alternately, so one opened first
    can finish first; self times must still add up, none negative."""
    rec = Recorder(clock=toy.clock)
    with Rebinding(rec, TOY_TARGETS):
        with rec.root("harness.request"):
            layer = toy.Layer()
            first, second = layer.rows(), layer.rows()
            next(first)
            next(second)  # opened under the first drain ...
            assert list(first) == [1, 2]  # ... which closes before it
            assert list(second) == [1, 2]
    rec.fold(1.0)
    assert rec.totals["toy.layer.rows.drain"][COUNT] == 2
    assert all(row[WALL_SELF] >= 0 for row in rec.totals.values())
    root = rec.totals["harness.request"]
    assert sum(row[WALL_SELF] for row in rec.totals.values()) == pytest.approx(root[WALL])
    assert sum(row[SIM_SELF] for row in rec.totals.values()) == pytest.approx(6.0)


def test_callables_restored_by_identity(toy):
    before = (toy.Layer.__dict__["outer"], toy.Layer.__dict__["rows"], toy.leaf, toy.device)
    rec = Recorder()
    rebinding = Rebinding(rec, TOY_TARGETS)
    with rebinding:
        assert toy.Layer.__dict__["outer"] is not before[0]
        assert toy.leaf is not before[2]
    after = (toy.Layer.__dict__["outer"], toy.Layer.__dict__["rows"], toy.leaf, toy.device)
    assert all(a is b for a, b in zip(before, after))
    assert rebinding.missing == ["toy.gone.renamed"]
    assert not rec.active


def test_real_targets_exist_and_are_restored():
    """Every target names a callable the seed code has; a traced pass leaves
    the program exactly as it found it."""
    import importlib

    def resolve(target):
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        return owner.__dict__[target.attr]

    before = [resolve(t) for t in spans.TARGETS]
    rebinding = Rebinding(Recorder())
    with rebinding:
        assert rebinding.missing == []
        import repro.core.masm as masm_module

        # ``from ... import write_run`` copies are rebound too.
        assert masm_module.write_run is not before[
            [t.name for t in spans.TARGETS].index("core.sortedrun.write_run")
        ]
    assert all(resolve(t) is b for t, b in zip(spans.TARGETS, before))


# ------------------------------------------------------------------- driver
def drive(*argv: str) -> tuple[int, list[str]]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the driver must find src/ by itself
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    return done.returncode, done.stdout.splitlines()


def summary(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def plan(lines: list[str]) -> dict:
    return json.loads(next(line for line in lines if line.startswith("PLAN "))[5:])


def exact(metrics: dict) -> dict:
    """The metrics that must repeat exactly: simulated time and counts."""
    return {
        name: m["value"]
        for name, m in metrics.items()
        if name.startswith("sim_") or name in ("ssd_writes_per_update", "write_amp")
    }


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_corrupted_answer_fails_the_run():
    code, lines = drive("--workload", "serve_small", "--seed", "5", "--seconds", SMOKE,
                        "--trace", "0", "--tamper")
    result = summary(lines)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_same_seed_repeats_and_other_seed_differs(contract):
    runs = {}
    for label, seed in (("a", "11"), ("b", "11"), ("c", "12")):
        code, lines = drive("--workload", "mixed", "--seed", seed, "--seconds", SMOKE,
                            "--trace", "0")
        assert code == 0
        runs[label] = (summary(lines), plan(lines))
    (a, plan_a), (b, plan_b), (c, plan_c) = runs["a"], runs["b"], runs["c"]
    assert a["correct"] and a["failed"] == 0
    assert exact(a["metrics"]) == exact(b["metrics"])
    assert (a["attempted"], plan_a) == (b["attempted"], plan_b)
    assert plan_a["digest"] != plan_c["digest"]
    assert exact(a["metrics"]) != exact(c["metrics"])
    # --trace 0 prints every end-to-end metric of the contract, and only those.
    assert list(a["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    for metric in contract["end_to_end"]:
        assert a["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert a["metrics"][metric["name"]]["value"] > 0


def test_traced_run_prints_the_contracts_per_layer_names(contract):
    code, lines = drive("--workload", "ingest", "--seed", "11", "--seconds", SMOKE,
                        "--trace", "1")
    assert code == 0
    result = summary(lines)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in contract["per_layer"]]
    for metric in contract["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["machine.trace_targets_missing"] == 0
    assert values["machine.trace_overhead"] > 1.0
    # Self times add up to the traced end-to-end time (within 5 %).
    assert values["machine.trace_self_coverage"] == pytest.approx(1.0, abs=0.05)
    # Two replicas of each shard ingest every update.
    assert values["core.replication.ships"] > 0
    assert values["core.update.encoded_size_calls_per_update"] > 2


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    import workloads

    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    for entry in contract["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert len(contract["end_to_end"]) <= 16 and len(contract["per_layer"]) <= 128
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_check_only_runs_every_workload():
    code, lines = drive("--check-only", "--seed", "3")
    assert code == 0
    assert sum(1 for line in lines if "correct=True" in line) == 4
