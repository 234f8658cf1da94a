"""Property test of folding run merges against the reference model.

A run merge folds a key's versions wherever no reader tells them apart
(Section 3.5).  The readers are scans left open at random timestamps and
snapshot transactions, which pin their start timestamps from ``begin`` to
commit or abort.  Through any interleaving of updates, flushes, merges
(direct ones and those of scan preambles), scans opened and drained, and
crashes clean or torn inside the RUN_MERGE protocol, each reader answers
exactly what :class:`repro.sim.model.ModelTable` says at its timestamp.
So does a probe at any timestamp no merge could have folded across: one at
or after the newest merge.
"""

from itertools import islice

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
from repro.txn.snapshot import SnapshotManager
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
ROWS = 30
KEY_MAX = 10**9
MERGE_SITES = ("masm.merge.logged", "masm.merge.product_written")
HOT = 6

#: Updates go to a few hot keys, so that keys collect versions for merges
#: to fold; a modify step is a burst.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            [
                *("insert", "delete", "modify", "modify", "flush", "flush") * 2,
                *("open", "begin") * 2,
                "merge",
                "drain",
                "end",
                "probe",
                "crash",
                "torn",
            ]
        ),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=10,
    max_size=80,
)


class System:
    """Engine + WAL + snapshot manager + the reference model, and the
    readers open on the engine."""

    def __init__(self) -> None:
        self.ssd_vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
        disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
        self.table = Table.create(disk_vol, "t", SCHEMA, ROWS, slack=1.0)
        base = [(i * 2, f"rec-{i}") for i in range(ROWS)]
        self.table.bulk_load(base)
        # MaSM-M on a 256 KB cache has 4 query pages: a scan over 5 runs
        # merges in its preamble.
        self.config = MaSMConfig(
            alpha=1.0,
            ssd_page_size=4 * KB,
            block_size=2 * KB,
            cache_bytes=256 * KB,
            auto_migrate=False,
        )
        self.masm = MaSM(self.table, self.ssd_vol, config=self.config)
        self.masm.attach_log(RedoLog(self.ssd_vol.create("wal", 4 * MB)))
        self.snapshots = SnapshotManager(self.masm)
        self.model = ModelTable(SCHEMA, base)
        self.scans: list = []  # (rows so far, the open scan, query ts, lo, hi)
        self.txns: list = []
        #: The oracle's timestamp after the newest merge: no merge has seen
        #: an update above it, so no fold crosses a timestamp from here on.
        self.unfolded_from = 0
        self._merged = 0

    def apply(self, kind: UpdateType, key: int, content) -> None:
        update = UpdateRecord(self.masm.oracle.next(), key, kind, content)
        self.masm.apply(update)
        self.model.record(update)

    def note_merges(self) -> None:
        merged = self.masm.stats.runs_merged
        if merged != self._merged:
            self._merged = merged
            self.unfolded_from = self.masm.oracle.current

    def probe_ts(self, choice: int) -> int:
        """A timestamp no fold crosses: at or after the newest merge, half
        the time an update's own."""
        now = self.masm.oracle.current
        stamps = [
            u.timestamp for u in self.model.history if u.timestamp >= self.unfolded_from
        ]
        if choice % 2 and stamps:
            return stamps[choice // 2 % len(stamps)]
        return self.unfolded_from + choice % (now - self.unfolded_from + 1)

    def check(self, rows, query_ts: int, lo: int = 0, hi: int = KEY_MAX) -> None:
        want = self.model.snapshot_records(query_ts, lo, hi)
        assert rows == want, f"read of [{lo}, {hi}] at ts={query_ts} diverged"

    def scan(self, query_ts: int, lo: int = 0, hi: int = KEY_MAX) -> None:
        rows = list(self.masm.range_scan(lo, hi, query_ts=query_ts))
        self.note_merges()
        self.check(rows, query_ts, lo, hi)

    def crash_and_recover(self) -> None:
        """Open scans and transactions die with the process."""
        for _rows, scan, *_ in self.scans:
            scan.close()
        self.scans.clear()
        self.txns.clear()
        old_oracle_ts = self.masm.oracle.current
        recovered, _report = restart_masm(
            self.table, self.ssd_vol, self.masm.redo_log.file, config=self.config
        )
        recovered.oracle.advance_past(old_oracle_ts)
        self.masm = recovered
        self.snapshots = SnapshotManager(recovered)
        self._merged = 0


def run_ops(system: System, ops) -> None:
    for kind, choice, tag in ops:
        masm = system.masm  # crashes replace the engine object
        hot = system.model.live_keys(masm.oracle.current)[:HOT]
        if kind == "insert":
            key = choice % 8 * 2 + choice % 2  # a deleted or a fresh hot key
            if key not in system.model.live_keys(masm.oracle.current):
                system.apply(UpdateType.INSERT, key, (key, f"p{tag}"))
        elif kind == "delete":
            if hot:
                system.apply(UpdateType.DELETE, hot[choice % len(hot)], None)
        elif kind == "modify":
            for i in range(1 + tag % 4):
                if hot:
                    key = hot[(choice + i) % len(hot)]
                    system.apply(UpdateType.MODIFY, key, {"payload": f"m{tag}.{i}"})
        elif kind == "flush":
            masm.flush_buffer()
        elif kind == "merge":
            masm.flush_buffer()
            masm._merge_earliest_runs(2 + tag % 3)
            system.note_merges()
        elif kind == "open":
            # Registers at once (its preamble may merge first); pulling a
            # row makes it read some of its runs before later merges.
            query_ts = system.probe_ts(choice)
            lo, hi = choice, choice + 40 * (1 + tag)
            scan = masm.range_scan(lo, hi, query_ts=query_ts)
            system.note_merges()
            rows = list(islice(scan, tag % 2))
            system.scans.append((rows, scan, query_ts, lo, hi))
        elif kind == "drain":
            if system.scans:
                rows, scan, query_ts, lo, hi = system.scans.pop(choice % len(system.scans))
                system.check(rows + list(scan), query_ts, lo, hi)
        elif kind == "begin":
            system.txns.append(system.snapshots.begin())
        elif kind == "end":
            if system.txns:
                txn = system.txns.pop(choice % len(system.txns))
                system.check(list(txn.range_scan(0, KEY_MAX)), txn.start_ts)
                system.note_merges()
                if tag % 2:
                    txn.commit()
                else:
                    txn.abort()
        elif kind == "probe":
            system.scan(system.probe_ts(choice))
        elif kind == "crash":
            system.crash_and_recover()
        else:  # torn: crash inside the RUN_MERGE protocol, then recover
            masm.flush_buffer()
            plan = FaultPlan().crash_at(MERGE_SITES[tag % 2], occurrence=1)
            try:
                with use_fault_plan(plan):
                    masm._merge_earliest_runs(2 + tag % 3)
                system.note_merges()
            except SimulatedCrash:
                system.crash_and_recover()
                system.unfolded_from = system.masm.oracle.current
    # Every reader still open, then the present.
    for rows, scan, query_ts, lo, hi in system.scans:
        system.check(rows + list(scan), query_ts, lo, hi)
    for txn in system.txns:
        system.check(list(txn.range_scan(0, KEY_MAX)), txn.start_ts)
    system.scan(system.masm.oracle.next())


@given(ops=ops_strategy)
@settings(max_examples=200, deadline=None)
def test_folding_merges_answer_every_reader_like_the_model(ops):
    run_ops(System(), ops)
