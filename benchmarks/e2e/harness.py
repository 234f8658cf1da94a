"""One measured pass over one workload: set-up, timed rounds, overhead
probe, open-loop phase, outage + recovery, and the final model check.

Everything a pass does is a pure function of ``(workload, seed, scale)``;
only the wall-clock readings differ between two runs.  Answers are checked
against :class:`repro.sim.model.ModelTable` outside the timed sections.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import statistics
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.core.update import UpdateCodec, apply_update
from repro.errors import ReproError
from repro.obs.tracing import Tracer
from repro.sim.model import ModelTable
from repro.workloads.synthetic import SyntheticUpdateGenerator

from calib import Meter, summarize
from spans import COUNT, SIM, SIM_SELF, WALL, WALL_SELF, NullRecorder, Rebinding, Recorder
from workloads import (
    FULL_RANGE,
    MAINT_EVERY,
    REF_SECONDS,
    UPDATE_MIX,
    Workload,
    span_of,
    base_rows,
    build_system,
)

_perf = time.perf_counter

#: Every Nth response is compared record for record (all are row-counted).
DEEP_CHECK_EVERY = 50

#: Set-ups and outage/recovery cycles per full-size run; their metrics are
#: medians over these.  Smoke-size runs do one of each.
SETUP_REPEATS = 3
RECOVER_CYCLES = 7

#: Calibration readings on each side of a set-up or a recovery, which cannot
#: be interleaved with readings the way a round of requests can.
OPAQUE_EDGE = 3


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


# ------------------------------------------------------------------- oracle
class Oracle:
    """The reference answer at "now".

    Keeps :class:`ModelTable` (the acknowledged history) plus the state that
    history produces, advanced incrementally through the same
    ``apply_update`` primitive so a check costs O(range) instead of
    O(history).  :meth:`agrees_with_model` ties the incremental state back
    to ``ModelTable.snapshot`` once per pass.
    """

    def __init__(self, schema, rows: list[tuple]) -> None:
        self.schema = schema
        self.model = ModelTable(schema, rows)
        self.state: dict[int, tuple] = dict(self.model.base)
        self.keys: list[int] = sorted(self.state)

    def record(self, update) -> None:
        self.model.record(update)
        key = update.key
        before = self.state.get(key)
        after = apply_update(before, update, self.schema)
        if after is None:
            if before is not None:
                del self.state[key]
                del self.keys[bisect_left(self.keys, key)]
        else:
            self.state[key] = after
            if before is None:
                insort(self.keys, key)

    def count(self, lo: int, hi: int) -> int:
        return bisect_right(self.keys, hi) - bisect_left(self.keys, lo)

    def records(self, lo: int, hi: int) -> list[tuple]:
        keys = self.keys
        state = self.state
        return [state[k] for k in keys[bisect_left(keys, lo):bisect_right(keys, hi)]]

    def agrees_with_model(self) -> bool:
        return self.state == self.model.snapshot(self.model.last_timestamp)


# ------------------------------------------------------------------ records
@dataclass
class Round:
    """What one timed round measured (raw seconds; ``meter`` rescales)."""

    meter: Meter
    updates: int = 0
    update_wall: float = 0.0
    update_sim: float = 0.0
    rows: int = 0
    scan_wall: float = 0.0
    latency_wall: list[float] = field(default_factory=list)
    latency_sim: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.update_wall + self.scan_wall


@dataclass
class PassResult:
    rounds: list[Round]
    meters: list[Meter]
    setup_seconds: list[float]  # at reference speed
    recover_seconds: list[float]  # at reference speed
    overhead_masm_sim: float
    overhead_base_sim: float
    open_loop: list[dict]
    counters: dict[str, float]
    attempted: int
    failed: int
    failures: list[str]
    request_plan: list[tuple[int, int]]
    recorder: object
    missing_targets: list[str]
    peak_rss_mb: float


class Checker:
    """Counts attempts and failures; checks every response."""

    def __init__(self, oracle: Oracle, tamper: Optional[Callable]) -> None:
        self.oracle = oracle
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.responses = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def response(self, lo: int, hi: int, records: list, deep: bool = False) -> None:
        """Row count on every response; record-for-record on every
        ``DEEP_CHECK_EVERY``-th and whenever ``deep`` is set."""
        self.responses += 1
        if self.tamper is not None:
            records = self.tamper(records, self.responses)
        want = self.oracle.count(lo, hi)
        if len(records) != want:
            self.fail(f"scan [{lo}, {hi}]: {len(records)} rows, model has {want}")
        elif deep or self.responses % DEEP_CHECK_EVERY == 0:
            if records != self.oracle.records(lo, hi):
                self.fail(f"scan [{lo}, {hi}]: records differ from the model")


# -------------------------------------------------------------------- a pass
class Pass:
    """One system under test plus everything needed to drive and check it."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        recorder,
        tamper: Optional[Callable] = None,
    ) -> None:
        # Each pass gets its own metrics registry, and the repo's span
        # tracer switched off: its 100K-span list would otherwise grow for
        # the whole run and show up as memory and time in every round.
        obs.set_registry(obs.MetricsRegistry())
        obs.set_tracer(Tracer(enabled=False))
        self.workload = workload
        self.recorder = recorder
        self.system = build_system(workload)
        self.clock = self.system.clock
        self.oracle = Oracle(self.system.schema, base_rows(workload.rows))
        self.checker = Checker(self.oracle, tamper)
        self.codec = UpdateCodec(self.system.schema)
        self.generator = SyntheticUpdateGenerator(
            workload.rows,
            self.system.schema,
            seed=seed,
            distribution=workload.distribution,
            mix=UPDATE_MIX,
            oracle=self.system.oracle,
        )
        self._user_bytes = 0
        self._sized = 0  # updates of the history already added to _user_bytes
        self.since_maintenance = 0
        self.request_id = 0
        self._warm()

    # ---------------------------------------------------------------- set-up
    def _warm(self) -> None:
        """Fill the cache to the workload's starting point, flush it, and
        run each kind of request once so lazy set-up is paid before round 1."""
        workload = self.workload
        system = self.system
        if workload.warm_fill > 0:
            engine = system.primaries()[0]
            target = workload.warm_fill * engine.cache_bytes
            while engine.cached_run_bytes + engine.buffer.used_bytes < target:
                self.apply_chunk(MAINT_EVERY, None)
        else:
            remaining = workload.warm_updates
            while remaining > 0:
                self.apply_chunk(min(MAINT_EVERY, remaining), None)
                remaining -= MAINT_EVERY
        system.flush()
        warm_rng = random.Random(f"warm:{workload.name}")
        self.scan(*FULL_RANGE, None, deep=True)
        for phase in workload.phases:
            if phase.ranges is not None:
                for lo, hi in phase.ranges(warm_rng, workload)()[:20]:
                    self.scan(lo, hi, None)

    def user_bytes(self) -> int:
        """Encoded size of every acknowledged update (write_amp's base).
        Sized here, between phases, and not as updates are applied: the
        codec is one of the traced layers."""
        history = self.oracle.model.history
        size = self.codec.encoded_size
        self._user_bytes += sum(size(update) for update in history[self._sized:])
        self._sized = len(history)
        return self._user_bytes

    # ------------------------------------------------------------ operations
    def apply_chunk(self, count: int, round_: Optional[Round]) -> None:
        """Generate ``count`` updates, apply them (timed), acknowledge them
        to the oracle, then run maintenance (timed) when it is due."""
        generator = self.generator
        updates = [generator.next_update() for _ in range(count)]
        system = self.system
        clock = self.clock
        checker = self.checker
        self.request_id += 1
        applied = 0
        with self.recorder.root("harness.updates", self.request_id):
            sim0 = clock.now
            start = _perf()
            try:
                for update in updates:
                    system.apply(update)
                    applied += 1
            except ReproError as exc:
                checker.fail(f"apply ts={updates[applied].timestamp}: {exc!r}")
                checker.attempted += 1
            wall = _perf() - start
            sim = clock.now - sim0
        checker.attempted += applied
        for update in updates[:applied]:
            self.oracle.record(update)
        self.since_maintenance += applied
        if self.since_maintenance >= MAINT_EVERY:
            self.since_maintenance = 0
            with self.recorder.root("harness.maintenance", self.request_id):
                sim0 = clock.now
                start = _perf()
                try:
                    system.maintenance()
                except ReproError as exc:
                    checker.fail(f"maintenance: {exc!r}")
                wall += _perf() - start
                sim += clock.now - sim0
        if round_ is not None:
            round_.updates += applied
            round_.update_wall += wall
            round_.update_sim += sim

    def scan(
        self,
        lo: int,
        hi: int,
        round_: Optional[Round],
        arrival: Optional[float] = None,
        deep: bool = False,
    ) -> Optional[float]:
        """One checked request; returns its dispatch instant (None if it
        failed).  Timed into ``round_`` when given."""
        checker = self.checker
        clock = self.clock
        checker.attempted += 1
        self.request_id += 1
        with self.recorder.root("harness.request", self.request_id):
            sim0 = clock.now
            start = _perf()
            try:
                records, started = self.system.request(lo, hi, arrival)
            except ReproError as exc:
                checker.fail(f"scan [{lo}, {hi}]: {exc!r}")
                return None
            wall = _perf() - start
            sim = clock.now - sim0
        checker.response(lo, hi, records, deep=deep)
        if round_ is not None:
            round_.rows += len(records)
            round_.scan_wall += wall
            round_.latency_wall.append(wall)
            round_.latency_sim.append(sim)
        return started

    def run_round(self, updates: int, ranges: list) -> Round:
        """``updates`` updates and ``ranges`` scans, evenly interleaved."""
        meter = Meter()
        round_ = Round(meter)
        pending = list(ranges)
        if updates:
            chunk = updates // len(pending) if pending else MAINT_EVERY
            chunk = max(1, min(chunk, MAINT_EVERY))
            remaining = updates
            while remaining > 0:
                self.apply_chunk(min(chunk, remaining), round_)
                remaining -= chunk
                if pending:
                    self.scan(*pending.pop(0), round_)
                meter.tick()
        for lo, hi in pending:
            self.scan(lo, hi, round_)
            meter.tick()
        meter.close()
        self.recorder.fold(meter.factor)
        return round_

    # ---------------------------------------------------------------- phases
    def overhead_probe(self, ranges: list) -> tuple[float, float]:
        """Simulated seconds of the system's scans and of the same ranges
        on the bare tables (paper Fig. 9/14's ratio).  Two passes over the
        same list, so both sides pay the same seeks between ranges."""
        clock = self.clock
        sim0 = clock.now
        for lo, hi in ranges:
            self.scan(lo, hi, None)
        sim1 = clock.now
        for lo, hi in ranges:
            self.system.base_scan(lo, hi)
        return sim1 - sim0, clock.now - sim1

    def open_loop(self, rng: random.Random, rate: float, requests: int) -> dict:
        """Poisson arrivals at ``rate`` per simulated second; a request is
        timed from the instant it was due, so waiting behind a slow
        predecessor counts."""
        workload = self.workload
        clock = self.clock
        due = clock.now
        latency: list[float] = []
        waits: list[float] = []
        for _ in range(requests):
            due += rng.expovariate(rate)
            if clock.now < due:
                clock.advance_to(due)
            lo, hi = span_of(rng, workload, rng.randrange(*workload.open_records))
            started = self.scan(lo, hi, None, arrival=due)
            if started is None:
                continue
            latency.append(clock.now - due)
            waits.append(started - due)
        if not latency:
            return {"rate": rate, "requests": 0, "p95_ms": float("inf"),
                    "wait_p95_ms": float("inf"), "late_ms": float("inf"), "ok": False}
        last_third = waits[len(waits) * 2 // 3:]
        p95_ms = percentile(latency, 95) * 1e3
        late_ms = statistics.fmean(last_third) * 1e3
        limit = workload.open_limit_ms
        return {
            "rate": rate,
            "requests": len(latency),
            "p95_ms": p95_ms,
            "wait_p95_ms": percentile(waits, 95) * 1e3,
            # Backlog at the end of the run: mean time requests of the last
            # third waited before dispatch.  Growing backlog = above limit.
            "late_ms": late_ms,
            "ok": p95_ms <= limit and late_ms <= limit,
        }

    def recover_cycle(self) -> tuple[float, Meter]:
        """Total outage -> recovery -> first full scan, in reference
        seconds; the scan is verified record for record afterwards."""
        meter = Meter(edge=OPAQUE_EDGE)
        checker = self.checker
        checker.attempted += 1
        self.request_id += 1
        records = None
        with self.recorder.root("harness.recover", self.request_id):
            start = _perf()
            try:
                self.system.outage_and_recover()
                records, _ = self.system.request(*FULL_RANGE)
            except ReproError as exc:
                checker.fail(f"recovery: {exc!r}")
            wall = _perf() - start
        meter.close()
        self.recorder.fold(meter.factor)
        if records is not None:
            checker.response(*FULL_RANGE, records, deep=True)
        return wall * meter.factor, meter


# ---------------------------------------------------------------- counters
def _device_totals(devices: list) -> dict[str, float]:
    total: dict[str, float] = {}
    for device in devices:
        stats = device.stats
        for name in ("reads", "writes", "bytes_read", "bytes_written",
                     "rand_writes", "busy_time"):
            total[name] = total.get(name, 0) + getattr(stats, name)
    return total


def _snapshot_counters(p: Pass) -> dict[str, float]:
    """Every cumulative count the metrics use, as one flat dict."""
    system = p.system
    out: dict[str, float] = {"user_bytes": p.user_bytes()}
    for prefix, devices in (("disk", system.disks()), ("ssd", system.ssds())):
        for name, value in _device_totals(devices).items():
            out[f"{prefix}.{name}"] = value
    for label, engines in (("all", system.engines()), ("primary", system.primaries())):
        for engine in engines:
            for name, value in engine.stats.as_dict().items():
                key = f"masm.{label}.{name}"
                out[key] = out.get(key, 0) + value
    registry = obs.get_registry()
    for name in ("replication.ships", "replication.checkpoints",
                 "txn.log.records_written", "txn.log.bytes_written",
                 "migration.pages_written"):
        out[name] = registry.counter(name).value
    scope = system.scope
    if scope is not None:
        for name in ("hedges", "read_failovers"):
            out[f"server.{name}"] = registry.counter(f"{scope}.{name}").value
        report = system.frontdoor.admission.report()
        out["server.delayed"] = sum(t.get("delayed", 0) for t in report.values())
        out["server.shed"] = sum(t.get("shed", 0) for t in report.values())
    else:
        for name in ("hedges", "read_failovers", "delayed", "shed"):
            out[f"server.{name}"] = 0
    out["heap_page_size"] = system.engines()[0].table.heap.page_size
    return out


# ---------------------------------------------------------------- run_pass
@dataclass(frozen=True)
class Sizes:
    """How much work a pass does, from ``--seconds``."""

    scale: float
    setups: int
    recoveries: int

    @classmethod
    def for_seconds(cls, seconds: float) -> "Sizes":
        scale = seconds / REF_SECONDS
        full = scale >= 0.5
        return cls(
            scale=scale,
            setups=SETUP_REPEATS if full else 1,
            recoveries=RECOVER_CYCLES if full else 1,
        )

    def rounds(self, full: int) -> int:
        return max(2, round(full * self.scale))

    def requests(self, full: int) -> int:
        return max(30, round(full * self.scale))


def run_pass(
    workload: Workload,
    seed: int,
    sizes: Sizes,
    recorder: Optional[Recorder] = None,
    tamper: Optional[Callable] = None,
) -> PassResult:
    """Set up (``sizes.setups`` times, keeping the last), measure, verify.
    With a ``recorder`` the timed rounds and the recovery run traced."""
    traced = recorder is not None
    if recorder is None:
        recorder = NullRecorder()
    meters: list[Meter] = []
    setup_seconds: list[float] = []
    p: Optional[Pass] = None
    for _ in range(sizes.setups):
        p = None
        gc.collect()
        meter = Meter(edge=OPAQUE_EDGE)
        start = _perf()
        p = Pass(workload, seed, recorder, tamper)
        wall = _perf() - start
        meters.append(meter.close())
        setup_seconds.append(wall * meter.factor)
    assert p is not None
    if traced:
        recorder.clock = p.clock
    tracing = (lambda: Rebinding(recorder)) if traced else contextlib.nullcontext
    missing: list[str] = []

    rng = random.Random(f"{seed}:{workload.name}")
    request_plan: list[tuple[int, int]] = []
    rounds: list[Round] = []
    overhead: Optional[tuple[float, float]] = None
    before = _snapshot_counters(p)
    for phase in workload.phases:
        draw = phase.ranges(rng, workload) if phase.ranges is not None else None
        with tracing() as rebinding:
            for _ in range(sizes.rounds(phase.rounds)):
                ranges = draw() if draw is not None else []
                request_plan.extend(ranges)
                round_ = p.run_round(phase.updates, ranges)
                rounds.append(round_)
                meters.append(round_.meter)
            if rebinding is not None:
                missing = rebinding.missing
        if draw is not None and overhead is None:
            # Right after the first phase that scans, while the cache still
            # holds what those scans met; outside the traced region.
            overhead = p.overhead_probe(draw() + draw())
    after = _snapshot_counters(p)
    counters = {name: after[name] - before.get(name, 0) for name in after}
    counters["heap_page_size"] = after["heap_page_size"]

    assert overhead is not None, "every workload has a phase with scans"
    masm_sim, base_sim = overhead
    open_rng = random.Random(f"{seed}:{workload.name}:open")
    open_loop = [
        p.open_loop(open_rng, rate, sizes.requests(requests))
        for rate, requests in zip(workload.open_rates, workload.open_requests)
    ]
    recover_seconds: list[float] = []
    with tracing():
        for _ in range(sizes.recoveries):
            seconds, meter = p.recover_cycle()
            recover_seconds.append(seconds)
            meters.append(meter)

    checker = p.checker
    checker.attempted += 2
    final, _ = p.system.request(*FULL_RANGE)
    checker.response(*FULL_RANGE, final, deep=True)
    if not p.oracle.agrees_with_model():
        checker.fail("incremental oracle state differs from ModelTable.snapshot")

    return PassResult(
        rounds=rounds,
        meters=meters,
        setup_seconds=setup_seconds,
        recover_seconds=recover_seconds,
        overhead_masm_sim=masm_sim,
        overhead_base_sim=base_sim,
        open_loop=open_loop,
        counters=counters,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures,
        request_plan=request_plan,
        recorder=recorder,
        missing_targets=missing,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


# ------------------------------------------------------------------ metrics
def _steady(rounds: list[Round]) -> list[Round]:
    """Rounds measured at a steady machine speed — all of them when most
    drifted, since then there is no steadier subset to prefer."""
    steady = [r for r in rounds if not r.meter.drifted]
    return steady if len(steady) * 2 >= len(rounds) else rounds


def _rate(rounds: list[Round], work: str, seconds: str) -> float:
    """Work per reference second over all ``rounds``: total over total, each
    round's seconds rescaled by its own calibration.  Not a median of
    per-round rates: flushes, merges and migrations land in some rounds and
    not others, and the median of such a sample is both unstable and blind
    to the stalls."""
    done = sum(getattr(r, work) for r in rounds)
    spent = sum(getattr(r, seconds) * r.meter.factor for r in rounds)
    return done / spent


def end_to_end(result: PassResult) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every end-to-end metric."""
    rounds = result.rounds
    scan_rounds = [r for r in rounds if r.latency_wall]
    update_rounds = [r for r in rounds if r.updates]
    sim_latency = [s for r in scan_rounds for s in r.latency_sim]
    counters = result.counters
    passing: list[float] = []
    for outcome in result.open_loop:  # highest rate with every lower rate ok
        if not outcome["ok"]:
            break
        passing.append(outcome["rate"])
    device_bytes = counters["disk.bytes_written"] + counters["ssd.bytes_written"]
    return {
        "setup_s": (statistics.median(result.setup_seconds), "s"),
        "scan_rows_per_s": (_rate(scan_rounds, "rows", "scan_wall"), "rows/s"),
        "req_ms_p50": (
            statistics.median(
                w * r.meter.factor * 1e3
                for r in _steady(scan_rounds)
                for w in r.latency_wall
            ),
            "ms",
        ),
        "update_per_s": (_rate(update_rounds, "updates", "update_wall"), "upd/s"),
        "recover_s": (statistics.median(result.recover_seconds), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "sim_scan_overhead": (result.overhead_masm_sim / result.overhead_base_sim, "ratio"),
        "sim_req_ms_p50": (percentile(sim_latency, 50) * 1e3, "ms"),
        "sim_req_ms_p95": (percentile(sim_latency, 95) * 1e3, "ms"),
        "sim_open_p95_ms": (result.open_loop[1]["p95_ms"], "ms"),
        "sim_max_rate_ok": (passing[-1] if passing else 0.0, "req/s"),
        "sim_update_per_s": (
            sum(r.updates for r in update_rounds) / sum(r.update_sim for r in update_rounds),
            "upd/s",
        ),
        "ssd_writes_per_update": (
            counters["masm.primary.updates_written_to_ssd"]
            / counters["masm.primary.updates_ingested"],
            "ratio",
        ),
        "write_amp": (device_bytes / counters["user_bytes"], "ratio"),
    }


def per_layer(traced: PassResult, untraced: PassResult) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric.

    ``*_ms`` values are self time over the traced pass's timed rounds, at
    reference machine speed; ``*_sim_ms`` the simulated device time issued
    by that layer.  ``untraced`` is the same work measured without the
    recorder: it gives ``machine.raw_*`` and ``machine.trace_overhead``.
    """
    rec = traced.recorder
    counters = traced.counters
    rounds = traced.rounds
    requests = max(1, sum(len(r.latency_wall) for r in rounds))
    updates = max(1, sum(r.updates for r in rounds))
    rows_out = max(1, sum(r.rows for r in rounds))

    def wall_ms(*names: str) -> float:
        return rec.sum_of(names, WALL_SELF) * 1e3

    def sim_ms(*names: str) -> float:
        return rec.sum_of(names, SIM_SELF) * 1e3

    def calls(*names: str) -> float:
        return rec.sum_of(names, COUNT)

    def counted(name: str) -> float:
        return rec.counts.get(name, 0)

    hits = counters["masm.all.block_cache_hits"]
    misses = counters["masm.all.block_cache_misses"]
    untraced_scans = [r for r in untraced.rounds if r.latency_wall]
    untraced_updates = [r for r in untraced.rounds if r.updates]
    raw_latency = [w for r in untraced_scans for w in r.latency_wall]
    traced_wall = sum(r.wall * r.meter.factor for r in rounds)
    untraced_wall = sum(r.wall * r.meter.factor for r in untraced.rounds)
    # Self times add up to the root spans' durations by construction; the
    # recovery cycles are folded into the same totals but are not rounds.
    self_total = sum(row[WALL_SELF] for row in rec.totals.values()) - rec.total(
        "harness.recover", WALL
    )
    machine = summarize(untraced.meters + traced.meters)
    drifted = sum(1 for r in untraced.rounds + rounds if r.meter.drifted)
    wait_p95 = traced.open_loop[1]["wait_p95_ms"]

    ms, us, count, ratio = "ms", "us", "count", "ratio"
    return {
        # -- serving -----------------------------------------------------
        "server.frontdoor.self_ms_per_req": (
            wall_ms("server.frontdoor.query", "server.frontdoor.try_admit",
                    "server.frontdoor.execute") / requests, ms),
        "server.frontdoor.sim_queue_wait_ms_p95": (wait_p95, ms),
        "server.quotas.self_ms_per_req": (wall_ms("server.quotas.decide") / requests, ms),
        "server.quotas.delayed": (counters["server.delayed"], count),
        "server.quotas.shed": (counters["server.shed"], count),
        "server.router.self_ms_per_req": (
            wall_ms("server.router.execute", "server.router.fanout_scan") / requests, ms),
        "server.router.partitions_per_req": (
            counted("server.router.partitions") / requests, count),
        "server.router.hedges": (counters["server.hedges"], count),
        "server.router.failovers": (counters["server.read_failovers"], count),
        # -- replication -------------------------------------------------
        "core.replication.ship_self_us_per_update": (
            wall_ms("core.replication.apply") * 1e3 / updates, us),
        "core.replication.ships": (counters["replication.ships"], count),
        "core.replication.scan_self_ms_per_req": (
            wall_ms("core.replication.scan", "core.replication.scan.drain",
                    "core.replication.partition_bounds") / requests, ms),
        "core.replication.maintenance_ms": (wall_ms("core.replication.maintenance"), ms),
        "core.replication.checkpoints": (counters["masm.all.checkpoints"], count),
        # -- engine ------------------------------------------------------
        "core.masm.apply_self_us_per_update": (
            wall_ms("core.masm.apply") * 1e3 / updates, us),
        "core.masm.scan_preamble_ms_per_req": (wall_ms("core.masm.range_scan") / requests, ms),
        "core.masm.scan_drain_ms_per_req": (
            wall_ms("core.masm.range_scan.drain") / requests, ms),
        "core.masm.flushes": (counters["masm.all.flushes"], count),
        "core.masm.flush_ms": (wall_ms("core.masm.flush_buffer"), ms),
        "core.masm.runs_per_scan": (
            counted("core.masm.runs_at_scan") / max(1, counted("core.masm.scans")), count),
        "core.masm.runs_merged": (counters["masm.all.runs_merged"], count),
        "core.masm.merge_ms": (wall_ms("core.masm.merge_runs"), ms),
        "core.masm.checkpoint_ms": (wall_ms("core.masm.checkpoint"), ms),
        # -- operators and kernels --------------------------------------
        "core.operators.merge_data_updates_self_ms": (
            wall_ms("core.operators.merge_data_updates",
                    "core.operators.merge_data_updates.drain"), ms),
        "core.operators.merge_updates_self_ms": (wall_ms("core.operators.merge_updates"), ms),
        "core.operators.updates_consumed_per_row_out": (
            counted("core.operators.updates_consumed") / rows_out, ratio),
        "core.kernels.merge_slices_ms": (wall_ms("core.kernels.merge_slices"), ms),
        "core.kernels.join_partition_ms": (wall_ms("core.kernels.join_partition"), ms),
        "core.kernels.batches": (calls("core.kernels.merge_slices"), count),
        # -- runs and the decoded-block cache ---------------------------
        "core.sortedrun.read_ms": (
            wall_ms("core.sortedrun.slice_columns", "core.sortedrun.scan",
                    "core.sortedrun.scan.drain"), ms),
        "core.sortedrun.read_sim_ms": (
            sim_ms("core.sortedrun.slice_columns", "core.sortedrun.scan",
                   "core.sortedrun.scan.drain"), ms),
        "core.sortedrun.blocks_read": (misses, count),
        "core.sortedrun.write_run_ms": (wall_ms("core.sortedrun.write_run"), ms),
        "core.sortedrun.write_run_sim_ms": (sim_ms("core.sortedrun.write_run"), ms),
        "core.sortedrun.bytes_written": (counted("core.sortedrun.bytes_written"), "B"),
        "core.blockcache.hits": (hits, count),
        "core.blockcache.misses": (misses, count),
        "core.blockcache.evictions": (counters["masm.all.block_cache_evictions"], count),
        "core.blockcache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, ratio),
        # -- update codec and buffer ------------------------------------
        "core.update.encoded_size_calls_per_update": (
            calls("core.update.encoded_size") / updates, count),
        "core.update.encoded_size_ms": (wall_ms("core.update.encoded_size"), ms),
        "core.update.encode_ms": (
            wall_ms("core.update.encode", "core.update.encode_many"), ms),
        "core.update.decode_block_ms": (
            wall_ms("core.update.decode_block", "core.update.block_columns"), ms),
        "core.update.blocks_decoded": (counters["masm.all.blocks_decoded"], count),
        "core.update.records_materialized_per_row_out": (
            counted("core.update.records_materialized") / rows_out, ratio),
        "core.membuffer.append_ms": (wall_ms("core.membuffer.append"), ms),
        "core.membuffer.sort_ms": (
            wall_ms("core.membuffer.sort", "core.membuffer.drain_sorted"), ms),
        # -- row store ---------------------------------------------------
        "engine.record.unpack_ms": (
            wall_ms("engine.record.unpack", "engine.record.unpack_many"), ms),
        "engine.record.records_unpacked_per_row_out": (
            counted("engine.record.records_unpacked") / rows_out, ratio),
        "engine.record.pack_ms": (wall_ms("engine.record.pack"), ms),
        "engine.page.decode_ms": (wall_ms("engine.page.from_bytes"), ms),
        "engine.page.encode_ms": (wall_ms("engine.page.to_bytes"), ms),
        "engine.page.pages_decoded": (calls("engine.page.from_bytes"), count),
        "engine.heapfile.scan_pages_ms": (
            wall_ms("engine.heapfile.scan_pages", "engine.heapfile.read_page"), ms),
        "engine.heapfile.scan_pages_sim_ms": (
            sim_ms("engine.heapfile.scan_pages", "engine.heapfile.read_page"), ms),
        "engine.heapfile.write_pages_sim_ms": (sim_ms("engine.heapfile.write_pages"), ms),
        "engine.heapfile.pages_read_per_req": (
            counted("engine.heapfile.pages_read") / requests, count),
        "engine.table.range_scan_self_ms": (
            wall_ms("engine.table.range_scan_chunks", "engine.table.range_scan",
                    "engine.table.range_scan.drain"), ms),
        # -- devices -----------------------------------------------------
        "storage.disk.sim_busy_s": (counters["disk.busy_time"], "s"),
        "storage.disk.reads": (counters["disk.reads"], count),
        "storage.disk.bytes_read": (counters["disk.bytes_read"], "B"),
        "storage.disk.bytes_written": (counters["disk.bytes_written"], "B"),
        "storage.disk.rand_writes": (counters["disk.rand_writes"], count),
        "storage.ssd.sim_busy_s": (counters["ssd.busy_time"], "s"),
        "storage.ssd.reads": (counters["ssd.reads"], count),
        "storage.ssd.writes": (counters["ssd.writes"], count),
        "storage.ssd.bytes_read": (counters["ssd.bytes_read"], "B"),
        "storage.ssd.bytes_written": (counters["ssd.bytes_written"], "B"),
        "storage.device.wall_ms": (
            wall_ms("storage.device.read", "storage.device.write",
                    "storage.device.read_batch", "storage.device.read_sync"), ms),
        # -- log, recovery, migration -----------------------------------
        "txn.log.appends": (counters["txn.log.records_written"], count),
        "txn.log.append_ms": (
            wall_ms("txn.log.log_update", "txn.log.log_run_flush", "txn.log.log_checkpoint"),
            ms),
        "txn.log.append_sim_ms": (
            sim_ms("txn.log.log_update", "txn.log.log_run_flush", "txn.log.log_checkpoint"),
            ms),
        "txn.log.bytes_per_update": (counters["txn.log.bytes_written"] / updates, "B"),
        "txn.log.truncate_ms": (wall_ms("txn.log.truncate", "txn.log.scrub_dirty"), ms),
        "txn.log.reclaimed_bytes": (counted("txn.log.reclaimed_bytes"), "B"),
        "txn.recovery.recover_ms": (
            wall_ms("txn.recovery.recover_masm", "txn.log.records", "txn.log.records.drain",
                    "core.replication.recover_replica", "core.replication.catch_up"), ms),
        "txn.recovery.recover_sim_ms": (
            sim_ms("txn.recovery.recover_masm", "txn.log.records", "txn.log.records.drain"),
            ms),
        "txn.recovery.records_replayed": (counted("txn.recovery.records_replayed"), count),
        "core.migration.migrations": (counters["masm.all.migrations"], count),
        "core.migration.wall_ms": (
            wall_ms("core.migration.migrate", "core.migration.migrate_all",
                    "core.migration.migrate_range"), ms),
        "core.migration.sim_s": (
            rec.total("core.migration.migrate", SIM), "s"),
        "core.migration.disk_bytes_rewritten": (
            counters["migration.pages_written"] * counters["heap_page_size"], "B"),
        # -- the machine and the recorder --------------------------------
        "machine.calib_ops_per_s": (machine["calib_ops_per_s"], "1/s"),
        "machine.calib_iqr": (machine["calib_iqr"], ratio),
        "machine.rounds_discarded": (drifted, count),
        "machine.trace_overhead": (traced_wall / untraced_wall, ratio),
        "machine.trace_self_coverage": (
            self_total / traced_wall if traced_wall else 0.0, ratio),
        "machine.trace_targets_missing": (
            len(traced.missing_targets) + counted("hook_errors"), count),
        "machine.raw_scan_rows_per_s": (
            statistics.median(r.rows / r.scan_wall for r in untraced_scans), "rows/s"),
        "machine.raw_update_per_s": (
            statistics.median(r.updates / r.update_wall for r in untraced_updates), "upd/s"),
        "machine.raw_req_ms_p95": (percentile(raw_latency, 95) * 1e3, ms),
        "machine.timed_s": (sum(r.wall for r in untraced.rounds), "s"),
    }


def budget(traced: PassResult) -> dict:
    """The per-layer table: spans, self time on both clocks, wall share."""
    layers = traced.recorder.by_layer()
    total_wall = sum(entry[1] for entry in layers.values()) or 1.0
    measured = sum(r.wall * r.meter.factor for r in traced.rounds) + sum(
        traced.recover_seconds
    )
    return {
        "measured_wall_ms": measured * 1e3,
        "self_wall_ms": total_wall * 1e3,
        "missing_targets": traced.missing_targets,
        "layers": {
            layer: {
                "spans": entry[0],
                "wall_ms": entry[1] * 1e3,
                "sim_ms": entry[2] * 1e3,
                "wall_share": entry[1] / total_wall,
            }
            for layer, entry in sorted(layers.items())
        },
    }


def plan_digest(result: PassResult) -> dict:
    """What the run asked of the program, as a fingerprint: two runs at one
    seed must agree on it, two seeds must not."""
    import hashlib

    digest = hashlib.sha256(repr(result.request_plan).encode()).hexdigest()
    return {
        "requests": len(result.request_plan),
        "updates": sum(r.updates for r in result.rounds),
        "digest": digest[:16],
    }
