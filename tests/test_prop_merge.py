"""Property test of run merging against the reference model.

The invariant: any interleaving of updates, flushes, merges of the earliest
runs, scans, clean crashes and crashes torn inside the RUN_MERGE protocol
(at ``masm.merge.logged`` and ``masm.merge.product_written``) answers
exactly what :class:`repro.sim.model.ModelTable` says at every snapshot
timestamp — including timestamps taken before the merges ran.  Each of those
timestamps is pinned (:meth:`MaSM.pin`, again after every restart): a merge
folds the versions of a key that no reader tells apart (Section 3.5), so
only a pinned past timestamp is owed its exact answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.masm import MaSM, MaSMConfig
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import SimulatedCrash
from repro.sim.model import ModelTable
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, use_fault_plan
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import restart_masm
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
ROWS = 60
KEY_MAX = 10**9
MERGE_SITES = ("masm.merge.logged", "masm.merge.product_written")

#: Updates and flushes weigh double so that runs pile up for merges to
#: consume; "merge" and "torn" flush the buffer first for the same reason.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            [
                *("insert", "delete", "modify", "flush") * 2,
                "merge",
                "scan",
                "historic",
                "crash",
                "torn",
            ]
        ),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=10,
    max_size=60,
)


class System:
    """Engine + WAL + the reference model of every acknowledged update."""

    def __init__(self) -> None:
        self.disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
        self.ssd_vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
        self.table = Table.create(self.disk_vol, "t", SCHEMA, ROWS, slack=1.0)
        base = [(i * 2, f"rec-{i}") for i in range(ROWS)]
        self.table.bulk_load(base)
        self.config = MaSMConfig(
            alpha=1.2, ssd_page_size=4 * KB, block_size=2 * KB, auto_migrate=False
        )
        self.log = RedoLog(self.ssd_vol.create("wal", 4 * MB))
        self.masm = MaSM(self.table, self.ssd_vol, config=self.config)
        self.masm.attach_log(self.log)
        self.model = ModelTable(SCHEMA, base)

    def apply(self, kind: UpdateType, key: int, content) -> None:
        update = UpdateRecord(self.masm.oracle.next(), key, kind, content)
        self.masm.apply(update)
        self.masm.pin(update.timestamp)
        self.model.record(update)

    def check(self, query_ts: int, lo: int = 0, hi: int = KEY_MAX) -> None:
        got = list(self.masm.range_scan(lo, hi, query_ts=query_ts))
        want = self.model.snapshot_records(query_ts, lo, hi)
        assert got == want, f"scan of [{lo}, {hi}] at ts={query_ts} diverged"

    def crash_and_recover(self) -> None:
        old_oracle_ts = self.masm.oracle.current
        recovered, _report = restart_masm(
            self.table, self.ssd_vol, self.log.file, config=self.config
        )
        # Timestamps handed to scans never hit the WAL; the recovered
        # oracle must not re-issue them or the model's history would shift.
        recovered.oracle.advance_past(old_oracle_ts)
        self.masm = recovered
        self.log = recovered.redo_log
        for update in self.model.history:
            recovered.pin(update.timestamp)


def run_ops(system: System, ops) -> None:
    for kind, key_choice, tag in ops:
        masm = system.masm  # crashes replace the engine object
        live = system.model.live_keys(masm.oracle.current)
        if kind == "insert":
            if key_choice not in live:
                record = (key_choice, f"p{tag}")
                system.apply(UpdateType.INSERT, key_choice, record)
        elif kind == "delete":
            if live:
                system.apply(UpdateType.DELETE, live[key_choice % len(live)], None)
        elif kind == "modify":
            if live:
                key = live[key_choice % len(live)]
                system.apply(UpdateType.MODIFY, key, {"payload": f"m{tag}"})
        elif kind == "flush":
            masm.flush_buffer()
        elif kind == "merge":
            masm.flush_buffer()
            masm._merge_earliest_runs(2 + tag % 3)
        elif kind == "scan":
            system.check(masm.oracle.next(), key_choice, key_choice + 40)
        elif kind == "historic":
            history = system.model.history
            if history:
                system.check(history[key_choice % len(history)].timestamp)
        elif kind == "crash":
            system.crash_and_recover()
        else:  # torn: crash inside the RUN_MERGE protocol, then recover
            masm.flush_buffer()
            plan = FaultPlan().crash_at(MERGE_SITES[tag % 2], occurrence=1)
            try:
                with use_fault_plan(plan):
                    masm._merge_earliest_runs(2 + tag % 3)
            except SimulatedCrash:
                system.crash_and_recover()
    # Final full check at the current timestamp and at every history point.
    system.check(system.masm.oracle.next())
    for update in system.model.history:
        system.check(update.timestamp)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_run_merges_match_the_model_at_every_snapshot(ops):
    run_ops(System(), ops)
