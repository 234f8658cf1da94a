"""Twin recovery: the run-manifest replay against the recovery it replaced.

``reference_recovery`` keeps the recovery that re-derived the run set with
its own rules.  Two identical engines (each with a healthy peer that takes
the same updates, the donor of peer repairs) are driven through the same
drawn history — updates, flushes, scans whose run budget merges runs, full,
whole-key-space and paced range migrations, a range migration over pages
crowded with fresh inserts (it defers the pages they no longer fit),
checkpoints that truncate the WAL, a flipped run block found by a scrub,
peer repairs — and both crash at the same drawn occurrence of one crash
site.  One restarts with :func:`repro.txn.recovery.restart_masm`, the other
with the reference; both then take more of the history, die again and
restart again the same way.  After each restart the two must agree on the
recovery report, every piece of run-set state, the buffer, every SSD file's
bytes, the heap, each device's operation sequence and a full scan — or both
raise the same error — and the scan must answer what
:class:`~repro.sim.model.ModelTable` says the acknowledged updates (and
perhaps the one in flight at the crash) left.
"""

import os
import random

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import pytest

import reference_recovery
from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import migrate_range
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.obs import use_registry
from repro.sim.model import ModelTable
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, SimulatedCrash, use_fault_plan
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import restart_masm
from repro.util.units import KB, MB

pytestmark = pytest.mark.faults

FAULT_SEED = int(os.environ.get("MASM_FAULT_SEED", "11"))
SCHEMA = synthetic_schema()
ROWS = 300
KEY_MAX = 2**63 - 1
#: Small enough that a few flushes exceed the scan's run budget (5 runs)
#: and a burst of updates fills the buffer (12 KB) mid-ingest.
CONFIG = MaSMConfig(
    alpha=1.0,
    ssd_page_size=2 * KB,
    block_size=1 * KB,
    cache_bytes=256 * KB,
    auto_migrate=False,
)
CRASH_SITES = [
    "masm.flush.run_written",
    "masm.merge.logged",
    "masm.merge.product_written",
    "migration.emit",  # the heap is one I/O chunk
    "wal.append",
    "wal.truncate",
]


class Twin:
    """One engine over its own devices, its donor peer, and a log of every
    device operation."""

    def __init__(self):
        self.ops = []
        self.disk = StorageVolume(self._recorded(SimulatedDisk(capacity=16 * MB)))
        self.ssd = StorageVolume(self._recorded(SimulatedSSD(capacity=4 * MB)))
        table = Table.create(self.disk, "t", SCHEMA, 4 * ROWS)
        table.bulk_load((i * 2, f"base-{i}") for i in range(ROWS))
        self.wal = self.ssd.create("wal", 1 * MB)
        self.masm = MaSM(table, self.ssd, config=CONFIG)
        self.masm.attach_log(RedoLog(self.wal))
        donor_table = Table.create(
            StorageVolume(SimulatedDisk(capacity=16 * MB)), "t", SCHEMA, 4 * ROWS
        )
        donor_table.bulk_load((i * 2, f"base-{i}") for i in range(ROWS))
        self.donor = MaSM(
            donor_table,
            StorageVolume(SimulatedSSD(capacity=8 * MB)),
            config=MaSMConfig(auto_migrate=False),
        )
        #: The updates whose apply returned, and the one in flight.
        self.acked: list[UpdateRecord] = []
        self.in_flight = None

    def _recorded(self, device):
        ops = self.ops

        def wrap(kind, fn, shape):
            def recorded(*args):
                ops.append((device.name, kind, shape(*args)))
                return fn(*args)

            return recorded

        device.read = wrap("read", device.read, lambda offset, size: (offset, size))
        device.write = wrap("write", device.write, lambda offset, data: (offset, len(data)))
        if hasattr(device, "read_batch"):
            device.read_batch = wrap("batch", device.read_batch, lambda reqs: tuple(reqs))
            device.read_sync = wrap(
                "sync", device.read_sync, lambda offset, size: (offset, size)
            )
        return device

    def restart(self, recover):
        """Crash-restart the engine with ``recover`` (a ``restart_masm``)."""
        old = self.masm
        self.masm, report = recover(old.table, self.ssd, self.wal, config=CONFIG)
        # Timestamps issued but never logged stay issued.
        self.masm.oracle.advance_past(old.oracle.current)
        return report

    def state(self):
        """Everything the two recoveries must agree on, read without I/O
        (the full scan last: its run-budget merges write)."""
        masm = self.masm
        state = {
            "runs": [
                (
                    run.name,
                    run.passes,
                    run.covered_min_ts,
                    run.covered_max_ts,
                    list(run.migrated_ranges),
                    run.quarantined,
                )
                for run in masm.runs
            ],
            "flushed_through": masm.flushed_through,
            "migrated_through": masm.migrated_through,
            "last_checkpoint_ts": masm.last_checkpoint_ts,
            "run_seq": masm._run_seq,
            "buffer": [entry[2] for entry in masm.buffer._entries],
            "files": {
                name: self.ssd.open(name).peek(0, self.ssd.open(name).size)
                for name in self.ssd
            },
            "heap": masm.table.heap.file.peek(0, masm.table.heap.file.size),
            "ops": list(self.ops),
        }
        state["scan"] = outcome(lambda: list(masm.range_scan(0, KEY_MAX)))
        return state


def outcome(fn):
    """``fn()``'s result, or the type and message of what it raised."""
    try:
        return ("ok", fn())
    except SimulatedCrash:
        raise
    except Exception as exc:  # noqa: BLE001 - twins must fail alike
        return ("raised", type(exc), str(exc))


def reference_restart(table, ssd_volume, wal_file, config=None):
    """``restart_masm`` over the reference recovery."""
    bare = Table(table.name, table.schema, table.heap)
    bare.heap.num_pages = bare.heap.capacity_pages
    wal_file.seek_append(0)
    return reference_recovery.recover_masm(
        bare, ssd_volume, RedoLog(wal_file), config=config
    )


class History:
    """Turns drawn steps into the same concrete operations for both twins,
    and keeps the model of what their acknowledged updates left."""

    def __init__(self, rng):
        self.rng = rng
        self.live = {i * 2 for i in range(ROWS)}
        self.fresh = iter(range(1, 10**9, 2))
        self.model = ModelTable(SCHEMA, ((i * 2, f"base-{i}") for i in range(ROWS)))
        #: The update that was in flight when the twins crashed, if any.
        self.in_doubt = None
        #: A restart found a lost run older than its log (an unrecoverable
        #: gap): the replica is incomplete by design from then on, until a
        #: snapshot from a peer heals it.
        self.incomplete = False

    def check(self, report, scan):
        """A restarted twin's full scan against the model, with or without
        the update in doubt (then adopted as the scan answered)."""
        self.incomplete |= report.unrecoverable_gaps > 0
        if self.incomplete:
            return
        assert scan[0] == "ok", scan
        doubt, self.in_doubt = self.in_doubt, None
        if doubt is not None and scan[1] == self.model.snapshot_records(
            KEY_MAX, extra=doubt
        ):
            self.model.record(doubt)
        assert scan[1] == self.model.snapshot_records(KEY_MAX)

    def fresh_key(self):
        key = next(self.fresh)
        while key in self.live:
            key = next(self.fresh)
        return key

    def resync(self, scan):
        """Adopt what a restart kept (an update in flight at the crash may
        or may not have been logged)."""
        if scan[0] == "ok":
            self.live = {SCHEMA.key(record) for record in scan[1]}

    def action(self, step):
        kind, arg = step
        rng = self.rng
        if kind == "updates":
            updates = []
            for _ in range(arg):
                roll = rng.random()
                if roll < 0.35 or len(self.live) < 10:
                    key = self.fresh_key()
                    self.live.add(key)
                    updates.append((key, UpdateType.INSERT, (key, f"i{key}")))
                elif roll < 0.55:
                    key = rng.choice(sorted(self.live))
                    self.live.discard(key)
                    updates.append((key, UpdateType.DELETE, None))
                else:
                    key = rng.choice(sorted(self.live))
                    updates.append((key, UpdateType.MODIFY, {"payload": f"m{rng.random():.6f}"}))
            return ("updates", updates)
        if kind == "slice":
            lo = rng.randrange(0, 2 * ROWS)
            return ("slice", (lo, lo + rng.randrange(1, ROWS)))
        if kind == "crowd":
            # Odd keys between the base rows of one stretch of pages: more
            # than those pages have room for, so the slice defers some.
            lo = rng.randrange(0, 2 * ROWS - 200)
            keys = [key for key in range(lo | 1, lo + 200, 2) if key not in self.live]
            self.live.update(keys)
            return ("crowd", ([(k, UpdateType.INSERT, (k, f"c{k}")) for k in keys], (lo, lo + 199)))
        if kind in ("flip", "scrub", "peer_repair"):
            return (kind, (rng.random(), rng.random(), rng.randrange(8)))
        return (kind, None)


def ingest(twin, updates):
    masm = twin.masm
    for key, op, content in updates:
        update = twin.in_flight = UpdateRecord(masm.oracle.next(), key, op, content)
        masm.apply(update)
        twin.donor.apply(update)
        twin.acked.append(update)
    twin.in_flight = None


def perform(twin, action):
    kind, arg = action
    masm = twin.masm
    if kind == "updates":
        ingest(twin, arg)
    elif kind == "crowd":
        updates, span = arg
        ingest(twin, updates)
        masm.flush_buffer()
        migrate_range(masm, *span, redo_log=masm.redo_log)
    elif kind == "flush":
        masm.flush_buffer()
    elif kind == "scan":
        list(masm.range_scan(0, KEY_MAX))
    elif kind == "merge":
        masm._merge_earliest_runs(3)
    elif kind == "migrate":
        masm.migrate()
    elif kind == "migrate_whole":
        migrate_range(masm, 0, KEY_MAX, redo_log=masm.redo_log)
    elif kind == "slice":
        migrate_range(masm, *arg, redo_log=masm.redo_log)
    elif kind == "checkpoint":
        masm.checkpoint_and_truncate()
    elif kind in ("flip", "scrub", "peer_repair"):
        which, where, bit = arg
        runs = masm.runs
        if not runs:
            return
        run = runs[int(which * len(runs))]
        offset = int(where * run.num_blocks * run.block_size)
        byte = run.file.read(offset, 1)[0]
        run.file.write(offset, bytes([byte ^ (1 << bit)]))
        if masm.block_cache is not None:
            masm.block_cache.invalidate_run(run.name)
        if kind == "scrub":
            masm.scrub(repair=True)
        elif kind == "peer_repair":
            masm.scrub()
            masm.repair_run_from_peer(run.name, twin.donor)


#: One step: a burst of updates, then one maintenance operation.
STEP = st.tuples(
    st.integers(0, 150),
    st.sampled_from(
        ["flush"] * 6
        + ["scan"] * 3
        + ["merge", "checkpoint"] * 2
        + ["migrate", "migrate_whole", "slice", "crowd", "flip", "scrub", "peer_repair"]
        + ["none"]
    ),
)


def drive(twins, history, steps, plans):
    """Run ``steps`` on every twin in lockstep, each under its own fault
    plan, until they crash (all at the same step) or the steps run out.  A
    step that raises must raise alike on all."""
    actions = [
        action
        for updates, maintenance in steps
        for action in (
            history.action(("updates", updates)),
            history.action((maintenance, None)),
        )
    ]
    for action in actions:
        results = []
        for twin, plan in zip(twins, plans):
            try:
                with use_fault_plan(plan):
                    results.append(outcome(lambda: perform(twin, action)))
            except SimulatedCrash:
                results.append("crash")
        assert results == results[:1] * len(twins), f"twins diverged at {action[0]}"
        for update in twins[0].acked:
            history.model.record(update)
        for twin in twins:
            twin.acked.clear()
        if results[0] == "crash":
            history.in_doubt = twins[0].in_flight
            return


def restart_both(twins, history):
    """Restart twin 0 with the manifest replay, twin 1 with the reference;
    they must agree, or fail alike, and answer what the model says.  The
    restarted state (None if both raised)."""
    reports = [
        outcome(lambda: twin.restart(recover))
        for twin, recover in zip(twins, (restart_masm, reference_restart))
    ]
    assert reports[0] == reports[1]
    if reports[0][0] != "ok":
        return None
    states = [twin.state() for twin in twins]
    assert states[0] == states[1]
    history.check(reports[0][1], states[0]["scan"])
    return states[0]


@pytest.mark.parametrize("site", CRASH_SITES)
@seed(FAULT_SEED)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    occurrence=st.integers(0, 2**16),
    history_seed=st.integers(0, 2**16),
    before=st.lists(STEP, min_size=4, max_size=24),
    between=st.lists(STEP, max_size=8),
)
def test_manifest_replay_recovers_what_the_reference_recovers(
    site, occurrence, history_seed, before, between
):
    with use_registry():
        # A first pass counts the site's occurrences in this history, so
        # the crash lands on one of them.
        reach = FaultPlan().crash_at(site, 10**9)
        drive([Twin()], History(random.Random(history_seed)), before, [reach])
        occurrence = 1 + occurrence % max(1, reach._crash_hits.get(site, 0))
        twins = [Twin(), Twin()]
        history = History(random.Random(history_seed))
        drive(twins, history, before, [FaultPlan().crash_at(site, occurrence) for _ in twins])
        state = restart_both(twins, history)
        if state is None:
            return
        history.resync(state["scan"])
        drive(twins, history, between, [FaultPlan(), FaultPlan()])
        restart_both(twins, history)
