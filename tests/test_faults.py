"""Fault injection: the stack under transient errors, corruption and crashes.

The deterministic :class:`FaultPlan` drives every adverse condition; the
assertions cover the full ladder of defenses — retry policy for transient
errors, checksum trailers for silent corruption, quarantine + redo-log
fallback for damaged runs, scrubbing for proactive detection, and recovery
orphan/rebuild logic for crashes at the worst moments.

``MASM_FAULT_SEED`` selects the fault-plan seed for the probabilistic
scenarios (CI runs three fixed seeds); the tests are written to pass for
*any* seed by scheduling the load-bearing faults at live operation counters
instead of absolute indexes.
"""

import json
import os
import pathlib
import random

import pytest

from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import CoordinatedMigration
from repro.engine.table import Table
from repro.errors import (
    ChecksumError,
    DeviceBoundsError,
    DuplicateFileError,
    SimulatedCrash,
    StorageError,
    TransientIOError,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    report_dict,
    use_registry,
    use_tracer,
)
from repro.storage import checksum
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultyDevice, use_fault_plan
from repro.storage.file import StorageVolume
from repro.storage.iosched import RetryPolicy
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.util.units import KB, MB

from test_failure_injection import SCHEMA, crash_recover, workload

pytestmark = pytest.mark.faults

#: CI exercises three fixed seeds (see .github/workflows/ci.yml).
FAULT_SEED = int(os.environ.get("MASM_FAULT_SEED", "11"))


def build(plan=None, n=1500):
    """The test_failure_injection fixture, with the SSD behind a FaultPlan."""
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd = SimulatedSSD(capacity=8 * MB)
    device = FaultyDevice(ssd, plan) if plan is not None else ssd
    ssd_vol = StorageVolume(device)
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.2, ssd_page_size=8 * KB, block_size=4 * KB, auto_migrate=False
    )
    log = RedoLog(ssd_vol.create("wal", 4 * MB))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(n)}
    return masm, table, ssd_vol, log, config, shadow


def scan_dict(masm):
    return {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}


def flip_one_bit(run, block_no=0, bit=3):
    """Silently corrupt one stored bit of a run block (no time charged)."""
    device = run.file.device
    offset = run.file.offset + block_no * run.block_size + 100
    raw = bytearray(device.store.read(offset, 1))
    raw[0] ^= 1 << bit
    device.store.write(offset, bytes(raw))


# --------------------------------------------------------------------- plans
def test_plan_is_deterministic():
    decisions = []
    for _ in range(2):
        plan = FaultPlan(seed=FAULT_SEED, read_error_rate=0.3, write_error_rate=0.3)
        decisions.append(
            [
                (f.transient, f.latency)
                for f in (plan.next_read_fault() for _ in range(200))
            ]
            + [
                (f.transient, f.bit_flip)
                for f in (plan.next_write_fault() for _ in range(200))
            ]
        )
    assert decisions[0] == decisions[1]


def test_plan_caps_consecutive_errors():
    plan = FaultPlan(seed=FAULT_SEED, read_error_rate=1.0, max_consecutive_errors=2)
    outcomes = [plan.next_read_fault().transient for _ in range(30)]
    # Never three failures in a row: a 4-attempt retry loop always wins.
    for i in range(len(outcomes) - 2):
        assert not all(outcomes[i : i + 3])


def test_plan_validates_rates():
    with pytest.raises(ValueError):
        FaultPlan(read_error_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(max_consecutive_errors=0)
    with pytest.raises(ValueError):
        FaultPlan().torn_write_at(0, keep_fraction=1.0)


# ------------------------------------------------------------ faulty device
def test_scheduled_transient_read_error():
    plan = FaultPlan(seed=FAULT_SEED).fail_read_at(0)
    device = FaultyDevice(SimulatedSSD(capacity=1 * MB), plan)
    device.write(0, b"payload")
    with pytest.raises(TransientIOError):
        device.read(0, 7)
    assert device.read(0, 7) == b"payload"  # fault consumed: next read clean


def test_torn_write_persists_prefix_and_crashes():
    plan = FaultPlan(seed=FAULT_SEED).torn_write_at(0, keep_fraction=0.5)
    device = FaultyDevice(SimulatedSSD(capacity=1 * MB), plan)
    with pytest.raises(SimulatedCrash):
        device.write(0, b"A" * 100)
    stored = device.peek(0, 100)
    assert stored[:50] == b"A" * 50
    assert stored[50:] == b"\x00" * 50


def test_bit_flip_is_silent():
    plan = FaultPlan(seed=FAULT_SEED).bit_flip_at(0)
    device = FaultyDevice(SimulatedSSD(capacity=1 * MB), plan)
    device.write(0, b"B" * 64)  # reports success
    stored = device.peek(0, 64)
    assert stored != b"B" * 64
    assert sum(bin(a ^ b).count("1") for a, b in zip(stored, b"B" * 64)) == 1


def test_latency_spike_charges_clock_and_busy_time():
    plan = FaultPlan(seed=FAULT_SEED, latency_spike_rate=1.0, latency_spike_seconds=0.5)
    inner = SimulatedSSD(capacity=1 * MB)
    device = FaultyDevice(inner, plan)
    before_clock, before_busy = inner.clock.now, inner.stats.busy_time
    device.write(0, b"x")
    assert inner.clock.now - before_clock >= 0.5
    assert inner.stats.busy_time - before_busy >= 0.5


def test_faults_counted_in_registry():
    with use_registry(MetricsRegistry()):
        plan = FaultPlan(seed=FAULT_SEED).fail_read_at(0).bit_flip_at(0)
        device = FaultyDevice(SimulatedSSD(capacity=1 * MB), plan)
        device.write(0, b"z" * 16)
        with pytest.raises(TransientIOError):
            device.read(0, 16)
        registry = get_registry()
        assert registry.counter("faults.injected").value == 2
        assert registry.counter("faults.injected.bit_flip").value == 1
        assert registry.counter("faults.injected.read_error").value == 1


# ------------------------------------------------------------------ retries
def test_volume_retries_absorb_transient_errors():
    with use_registry(MetricsRegistry()):
        plan = FaultPlan(seed=FAULT_SEED).fail_read_at(0).fail_read_at(1)
        inner = SimulatedSSD(capacity=1 * MB)
        volume = StorageVolume(FaultyDevice(inner, plan))
        file = volume.create("f", 64 * KB)
        file.write(0, b"durable")
        before = inner.clock.now
        assert file.read(0, 7) == b"durable"  # two faults, invisible
        registry = get_registry()
        assert registry.counter("iosched.retries").value == 2
        assert registry.counter("iosched.backoff_seconds").value > 0
        assert inner.clock.now > before  # backoff charged to the clock


def test_retry_policy_exhausts_and_reraises():
    with use_registry(MetricsRegistry()):
        policy = RetryPolicy(max_attempts=3)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise TransientIOError("injected")

        with pytest.raises(TransientIOError):
            policy.call(always_fails)
        assert len(attempts) == 3
        assert get_registry().counter("iosched.retries_exhausted").value == 1


_ORIGINAL = bytes(range(256)) * 32  # 8 KB already on the device
_PAYLOAD = b"retried!" * 512  # 4 KB an op writes
_MAX_ATTEMPTS = RetryPolicy().max_attempts


def _fail_op(plan, op, failures):
    """Schedule ``failures`` consecutive failed attempts of ``op``, starting
    with the plan's next operation."""
    if op == "read_batch":  # a batch consults the plan once per request
        for attempt in range(failures):
            plan.fail_read_at(plan.read_op_count + 2 * attempt)
    elif op == "read":
        for attempt in range(failures):
            plan.fail_read_at(plan.read_op_count + attempt)
    else:
        for attempt in range(failures):
            plan.fail_write_at(plan.write_op_count + attempt)


def _run_op(file, op):
    if op == "append":
        return file.append(_PAYLOAD)
    if op == "write":
        return file.write(4 * KB, _PAYLOAD)
    if op == "read":
        return file.read(0, 8 * KB)
    if op == "read_batch":
        return file.read_batch([(0, 4 * KB), (4 * KB, 4 * KB)])
    return file.zero_range(0, 4 * KB)


#: What the file's first 12 KB hold once each op has succeeded.
_AFTER_SUCCESS = {
    "append": _ORIGINAL + _PAYLOAD,
    "write": _ORIGINAL[: 4 * KB] + _PAYLOAD + bytes(4 * KB),
    "read": _ORIGINAL + bytes(4 * KB),
    "read_batch": _ORIGINAL + bytes(4 * KB),
    "zero_range": bytes(4 * KB) + _ORIGINAL[4 * KB :] + bytes(4 * KB),
}
_RESULT = {
    "append": 8 * KB,
    "write": None,
    "read": _ORIGINAL,
    "read_batch": [_ORIGINAL[: 4 * KB], _ORIGINAL[4 * KB :]],
    "zero_range": 4 * KB,
}


def _retry_volume(plan, policy):
    """``(file, inner SSD)`` of a 64 KB file holding ``_ORIGINAL`` behind
    ``plan``, then of its twin behind a plan that injects nothing."""
    volumes = []
    for device_plan in (plan, FaultPlan(seed=FAULT_SEED)):
        inner = SimulatedSSD(capacity=1 * MB)
        kwargs = {} if policy == "default" else {"retry_policy": None}
        volume = StorageVolume(FaultyDevice(inner, device_plan), **kwargs)
        file = volume.create("f", 64 * KB)
        file.write(0, _ORIGINAL)
        volumes.append((file, inner))
    return volumes


@pytest.mark.parametrize("policy", ["default", "none"])
@pytest.mark.parametrize("failures", [1, _MAX_ATTEMPTS - 1, _MAX_ATTEMPTS])
@pytest.mark.parametrize("op", ["append", "write", "read", "read_batch", "zero_range"])
def test_every_file_op_retries_exactly_as_the_policy_says(op, failures, policy):
    """Each SimFile op under ``failures`` scheduled transient errors: the
    ``iosched.*`` counters, the backoff on the clock, the outcome and the
    device bytes are what the policy prescribes — every failed attempt but
    the last backs off, the first included."""
    with use_registry(MetricsRegistry()):
        plan = FaultPlan(seed=FAULT_SEED)
        (file, inner), (twin, twin_inner) = _retry_volume(plan, policy)
        start = inner.clock.now
        twin_start = twin_inner.clock.now
        assert _run_op(twin, op) == _RESULT[op]
        service = twin_inner.clock.now - twin_start

        _fail_op(plan, op, failures)
        if policy == "none":
            retries, succeeds = 0, False
        else:
            retries = min(failures, _MAX_ATTEMPTS - 1)
            succeeds = failures < _MAX_ATTEMPTS
        backoffs = [0.5e-3 * 2**attempt for attempt in range(retries)]
        if succeeds:
            assert _run_op(file, op) == _RESULT[op]
        else:
            with pytest.raises(TransientIOError):
                _run_op(file, op)

        registry = get_registry()
        assert registry.counter("iosched.retries").value == retries
        assert registry.counter("iosched.backoff_seconds").value == pytest.approx(
            sum(backoffs), abs=1e-12
        )
        exhausted = int(policy == "default" and not succeeds)
        assert registry.counter("iosched.retries_exhausted").value == exhausted
        expected_now = start + sum(backoffs) + (service if succeeds else 0.0)
        assert inner.clock.now == pytest.approx(expected_now, abs=1e-12)
        stored = file.peek(0, 12 * KB)
        assert stored == (_AFTER_SUCCESS[op] if succeeds else _ORIGINAL + bytes(4 * KB))
        assert file.append_pos == (12 * KB if op == "append" and succeeds else 8 * KB)


def test_corruption_is_never_retried():
    policy = RetryPolicy(max_attempts=5)
    attempts = []

    def corrupt():
        attempts.append(1)
        raise ChecksumError("stored bytes will not improve")

    with pytest.raises(ChecksumError):
        policy.call(corrupt)
    assert len(attempts) == 1


# ---------------------------------------------------------------- checksums
def test_seal_verify_roundtrip():
    page = checksum.seal(b"body bytes", 4096)
    assert len(page) == 4096
    checksum.verify(page)  # no raise


def test_verify_detects_any_flipped_bit():
    page = bytearray(checksum.seal(b"body bytes", 512))
    rng = random.Random(FAULT_SEED)
    pos = rng.randrange(len(page))
    page[pos] ^= 1 << rng.randrange(8)
    with pytest.raises(ChecksumError):
        checksum.verify(bytes(page))


def test_verify_reports_missing_trailer():
    with pytest.raises(ChecksumError, match="trailer"):
        checksum.verify(b"\x00" * 256)


def test_verification_can_be_disabled():
    page = bytearray(checksum.seal(b"x", 256))
    page[0] ^= 0xFF
    previous = checksum.set_verification(False)
    try:
        checksum.verify(bytes(page))  # no raise while disabled
    finally:
        checksum.set_verification(previous)
    with pytest.raises(ChecksumError):
        checksum.verify(bytes(page))


# ------------------------------------------------------------- typed errors
def test_blockstore_bounds_are_typed():
    device = SimulatedSSD(capacity=1 * MB)
    with pytest.raises(DeviceBoundsError):
        device.store.write(1 * MB - 1, b"xx")
    with pytest.raises(DeviceBoundsError):
        device.read(0, 2 * MB)


def test_duplicate_file_creation_is_typed():
    volume = StorageVolume(SimulatedSSD(capacity=1 * MB))
    volume.create("f", 4 * KB)
    with pytest.raises(DuplicateFileError):
        volume.create("f", 4 * KB)
    # Still a StorageError, so broad handlers keep working.
    with pytest.raises(StorageError):
        volume.create("f", 4 * KB)


# ------------------------------------------- quarantine + log-replay fallback
def test_scan_falls_back_to_log_replay_on_corruption():
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 400, seed=FAULT_SEED)
    masm.flush_buffer()
    assert masm.runs
    flip_one_bit(masm.runs[0])

    got = scan_dict(masm)
    assert got == shadow  # correct answers, degraded path
    assert masm.runs[0].quarantined
    assert masm.stats.quarantined_runs == 1
    assert masm.stats.log_fallback_scans >= 1
    assert get_registry().counter("checksum.failures").value >= 1

    # Further scans keep working (fallback short-circuits the bad run).
    assert scan_dict(masm) == shadow


def test_migration_heals_quarantined_run():
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 400, seed=FAULT_SEED)
    masm.flush_buffer()
    flip_one_bit(masm.runs[0])
    assert scan_dict(masm) == shadow  # quarantines the run
    assert masm.runs[0].quarantined

    masm.migrate()  # merges via the fallback, applies everything in place
    table_view = {
        SCHEMA.key(r): r for r in table.range_scan(*table.full_key_range())
    }
    assert table_view == shadow
    assert not masm.runs  # retired
    assert scan_dict(masm) == shadow


def test_merge_heals_quarantined_run():
    masm, table, ssd_vol, log, config, shadow = build()
    # Two runs, then damage the first and merge them.
    workload(masm, shadow, 300, seed=FAULT_SEED)
    masm.flush_buffer()
    workload(masm, shadow, 300, seed=FAULT_SEED + 1)
    masm.flush_buffer()
    assert len(masm.runs) == 2
    flip_one_bit(masm.runs[0])
    merged = masm._merge_earliest_runs(fan_in=2)
    assert len(masm.runs) == 1
    assert not merged.quarantined
    assert merged.verify_blocks() == []  # freshly sealed and intact
    assert scan_dict(masm) == shadow


# ----------------------------------------------------------------- scrubbing
def test_scrub_reports_and_quarantines_damage():
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 400, seed=FAULT_SEED)
    masm.flush_buffer()
    report = masm.scrub()
    assert report.clean
    assert report.runs_checked == len(masm.runs)

    flip_one_bit(masm.runs[0], block_no=1)
    report = masm.scrub()
    assert not report.clean
    assert report.damaged_blocks[masm.runs[0].name] == [1]
    assert masm.runs[0].quarantined
    assert masm.stats.scrubs == 2
    assert scan_dict(masm) == shadow  # scans already routed to the fallback
    assert json.dumps(report.as_dict())  # JSON-exportable


# -------------------------------------------------------------- crash points
def test_crash_point_orphan_run_discarded_on_recovery():
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 400, seed=FAULT_SEED)
    plan = FaultPlan(seed=FAULT_SEED).crash_at("masm.flush.run_written")
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            masm.flush_buffer()  # run durable, RUN_FLUSH never logged

    recovered, report = crash_recover(table, ssd_vol, log, config)
    assert report.orphan_runs_discarded == 1
    assert scan_dict(recovered) == shadow


def test_crash_point_mid_migration_plan_driven():
    """The hand-torn `del iterator` scenario, now driven by a fault plan."""
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 400, seed=FAULT_SEED)
    # One hit per output page (46 of them): die in the middle.
    plan = FaultPlan(seed=FAULT_SEED).crash_at("migration.emit", occurrence=20)
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            for _ in CoordinatedMigration(masm, redo_log=log):
                pass

    recovered, report = crash_recover(table, ssd_vol, log, config)
    assert report.migrations_redone == 1
    assert scan_dict(recovered) == shadow


def test_crash_point_on_wal_append():
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 100, seed=FAULT_SEED)
    plan = FaultPlan(seed=FAULT_SEED).crash_at("wal.append")
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            masm.insert((999_999, "lost"))  # dies before the log write
    # The unacknowledged update is gone; everything acknowledged survives.
    recovered, _ = crash_recover(table, ssd_vol, log, config)
    assert scan_dict(recovered) == shadow


# ------------------------------------------------- recovery rebuild from log
def test_recovery_rebuilds_corrupt_run_from_log():
    masm, table, ssd_vol, log, config, shadow = build()
    workload(masm, shadow, 400, seed=FAULT_SEED)
    masm.flush_buffer()
    workload(masm, shadow, 400, seed=FAULT_SEED + 1)
    masm.flush_buffer()
    assert len(masm.runs) >= 2
    flip_one_bit(masm.runs[0])

    recovered, report = crash_recover(table, ssd_vol, log, config)
    assert report.corrupt_runs_discarded == 1
    assert report.runs_rebuilt == 1
    assert scan_dict(recovered) == shadow
    # The rebuilt state is fully intact: a scrub finds nothing.
    assert recovered.scrub().clean


def test_recovery_survives_torn_run_write():
    masm, table, ssd_vol, log, config, shadow = build()
    plan = FaultPlan(seed=FAULT_SEED)
    ssd_vol.device = FaultyDevice(ssd_vol.device, plan)
    workload(masm, shadow, 400, seed=FAULT_SEED)
    plan.torn_write_at(plan.write_op_count, keep_fraction=0.5)
    with pytest.raises(SimulatedCrash):
        masm.flush_buffer()  # power fails halfway through the run write

    recovered, report = crash_recover(table, ssd_vol, log, config)
    # The torn run was never logged: it is a damaged orphan, and its
    # updates come back via the buffer replay.
    assert report.corrupt_runs_discarded == 1
    assert report.runs_rebuilt == 0
    assert scan_dict(recovered) == shadow


# ------------------------------------------------------- acceptance scenario
def test_full_cycle_under_mixed_fault_plan(tmp_path):
    """ISSUE 3 acceptance: transient errors + one torn write + one bit-flip
    across a full insert/flush/migrate/scan/recover cycle, with correct scan
    results and the fault counters visible in the exported metrics report."""
    with use_registry(MetricsRegistry()), use_tracer(Tracer()):
        plan = FaultPlan(
            seed=FAULT_SEED, read_error_rate=0.01, write_error_rate=0.01
        )
        masm, table, ssd_vol, log, config, shadow = build(plan)
        # Guarantee at least one retry whatever the seed's random draws do.
        plan.fail_write_at(plan.write_op_count)
        workload(masm, shadow, 300, seed=FAULT_SEED)

        # One torn write: power loss mid-flush, recovered from the log.
        plan.torn_write_at(plan.write_op_count, keep_fraction=0.5)
        with pytest.raises(SimulatedCrash):
            masm.flush_buffer()
        masm, report = crash_recover(table, ssd_vol, log, config)
        assert scan_dict(masm) == shadow

        # One silent bit-flip on the next run write, caught by checksums.
        workload(masm, shadow, 300, seed=FAULT_SEED + 1)
        plan.bit_flip_at(plan.write_op_count)
        masm.flush_buffer()
        assert scan_dict(masm) == shadow  # falls back to log replay
        scrub_report = masm.scrub()

        # Migration heals the quarantined run and empties the cache.
        masm.migrate()
        workload(masm, shadow, 100, seed=FAULT_SEED + 2)
        assert scan_dict(masm) == shadow

        metrics = report_dict(scrub=scrub_report.as_dict())
        counters = metrics["metrics"]
        assert counters["faults.injected"]["value"] > 0
        assert counters["iosched.retries"]["value"] > 0
        assert counters["checksum.failures"]["value"] > 0
        # CI points MASM_FAULT_ARTIFACT_DIR at a directory it uploads.
        artifact_dir = os.environ.get("MASM_FAULT_ARTIFACT_DIR")
        out_dir = pathlib.Path(artifact_dir) if artifact_dir else tmp_path
        out_dir.mkdir(parents=True, exist_ok=True)
        artifact = out_dir / f"fault_metrics_seed{FAULT_SEED}.json"
        artifact.write_text(json.dumps(metrics, indent=2, sort_keys=True))
        assert artifact.exists()
