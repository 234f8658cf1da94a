"""Snapshot isolation over MaSM (Section 3.6).

A transaction works on the snapshot of data as of its start timestamp; its
own updates live in a small private buffer merged into its reads.  On
commit, first-committer-wins: if anything wrote an overlapping key after this
transaction started — another transaction's commit or a plain
:meth:`MaSM.apply` — it aborts.  On success the private updates get the commit
timestamp and move to MaSM's global buffer — exactly the scheme the paper
sketches.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.core.masm import MaSM
from repro.core.operators import MergeDataUpdates, MergeUpdates
from repro.core.update import UpdateRecord, UpdateType, combine
from repro.errors import TransactionAborted, TransactionError
from repro.sim.hooks import interleave as sim_interleave


class SnapshotManager:
    """Coordinates snapshot-isolated transactions over one MaSM engine."""

    def __init__(self, masm: MaSM, committed_history: int = 10_000) -> None:
        self.masm = masm
        self.oracle = masm.oracle
        #: key -> timestamp of the newest write the engine ingested for it
        #: since this manager attached (bounded to ``committed_history``
        #: keys, oldest writes dropped first).  Fed by :meth:`MaSM.apply`,
        #: so it covers transaction commits and plain updates alike; it does
        #: not survive a crash, and neither does any open transaction.
        self._last_write: dict[int, int] = {}
        self._history = committed_history
        self._lock = threading.Lock()
        masm.attach_snapshots(self)

    def begin(self) -> "SnapshotTransaction":
        """A transaction reading at a fresh start ts, pinned in the engine
        until it commits or aborts: no fold or migration takes its snapshot
        away."""
        sim_interleave("txn.begin")
        start_ts = self.oracle.next()
        return SnapshotTransaction(self, start_ts, self.masm.pin(start_ts))

    # ------------------------------------------------------------- internals
    def _conflicts(self, start_ts: int, keys: frozenset) -> bool:
        with self._lock:
            last_write = self._last_write
            return any(last_write.get(key, 0) > start_ts for key in keys)

    def note_write(self, timestamp: int, key: int) -> None:
        """One update the engine just ingested (called by ``MaSM.apply``)."""
        with self._lock:
            last_write = self._last_write
            if timestamp > last_write.get(key, 0):
                last_write[key] = timestamp
            if len(last_write) > self._history:
                newest = sorted(last_write.items(), key=lambda kv: kv[1])
                self._last_write = dict(newest[self._history // 2 :])


class SnapshotTransaction:
    """One snapshot-isolated transaction with a private update buffer."""

    def __init__(self, manager: SnapshotManager, start_ts: int, pin_id: int) -> None:
        self.manager = manager
        self.start_ts = start_ts
        self._pin_id: Optional[int] = pin_id  # None once released
        self.schema = manager.masm.table.schema
        self._writes: dict[int, UpdateRecord] = {}  # key -> combined update
        self._done = False

    # ---------------------------------------------------------------- writes
    def _stage(self, update: UpdateRecord) -> None:
        if self._done:
            raise TransactionError("transaction already finished")
        prior = self._writes.get(update.key)
        if prior is None:
            self._writes[update.key] = update
        else:
            self._writes[update.key] = combine(prior, update, self.schema)

    def insert(self, record: tuple) -> None:
        key = self.schema.key(record)
        self._stage(UpdateRecord(self.start_ts, key, UpdateType.INSERT, record))

    def delete(self, key: int) -> None:
        self._stage(UpdateRecord(self.start_ts, key, UpdateType.DELETE, None))

    def modify(self, key: int, changes: dict) -> None:
        self._stage(
            UpdateRecord(self.start_ts, key, UpdateType.MODIFY, dict(changes))
        )

    # ----------------------------------------------------------------- reads
    def range_scan(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        """Records as of the snapshot, plus this transaction's own writes.

        Implemented per the paper: a Mem_scan over the private buffer is
        added to the query's operator tree.
        """
        if self._done:
            raise TransactionError("transaction already finished")
        sim_interleave("txn.scan")
        base = self.manager.masm.range_scan(
            begin_key, end_key, query_ts=self.start_ts
        )
        own = [u for k, u in sorted(self._writes.items()) if begin_key <= k <= end_key]
        if not own:
            return base

        def pairs() -> Iterator[tuple[tuple, int]]:
            # The snapshot records act as the "data"; page timestamps are
            # irrelevant here because private writes are never migrated.
            for record in base:
                yield record, 0
        updates = MergeUpdates([self.manager.masm.codec.encode_columns(own)])
        return iter(MergeDataUpdates(pairs(), updates, self.schema))

    def get(self, key: int) -> Optional[tuple]:
        for record in self.range_scan(key, key):
            return record
        return None

    # ---------------------------------------------------------------- finish
    def commit(self) -> int:
        """First-committer-wins validation, then publish to MaSM."""
        if self._done:
            raise TransactionError("transaction already finished")
        sim_interleave("txn.commit")
        self._finish()
        if not self._writes:
            return self.start_ts
        keys = frozenset(self._writes)
        if self.manager._conflicts(self.start_ts, keys):
            raise TransactionAborted(
                f"snapshot conflict on keys {sorted(keys)[:5]}..."
            )
        commit_ts = self.manager.oracle.next()
        for key in sorted(self._writes):
            update = self._writes[key]
            self.manager.masm.apply(
                UpdateRecord(commit_ts, key, update.type, update.content)
            )
        return commit_ts

    def abort(self) -> None:
        self._finish()
        self._writes.clear()

    def _finish(self) -> None:
        """Mark the transaction done and release its snapshot pin."""
        self._done = True
        if self._pin_id is not None:
            self.manager.masm.unpin(self._pin_id)
            self._pin_id = None

    @property
    def is_finished(self) -> bool:
        return self._done
