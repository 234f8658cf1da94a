"""Two-phase-locking transactions over MaSM (Section 3.6).

The paper's locking recipe: cache a transaction's updates in a private
buffer, and only when the protecting exclusive lock is released (at commit)
assign the current timestamp and append to MaSM's global in-memory buffer.
Reads take shared locks and see all earlier updates (normal start timestamp).

Key-granularity locks keep the demo simple; any hashable resource id works
with the underlying :class:`repro.txn.locks.LockManager`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.core.masm import MaSM
from repro.core.operators import MergeDataUpdates, MergeUpdates
from repro.core.update import UpdateRecord, UpdateType, combine
from repro.errors import TransactionError
from repro.txn.locks import LockManager, LockMode

_txn_ids = itertools.count(1)


class TransactionManager:
    """Hands out 2PL transactions over one MaSM engine."""

    def __init__(self, masm: MaSM, lock_timeout: float = 5.0) -> None:
        self.masm = masm
        self.locks = LockManager(timeout=lock_timeout)

    def begin(self) -> "LockingTransaction":
        return LockingTransaction(self, next(_txn_ids))


class LockingTransaction:
    """A strict-2PL transaction with a private update buffer."""

    def __init__(self, manager: TransactionManager, txn_id: int) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.schema = manager.masm.table.schema
        self._writes: dict[int, UpdateRecord] = {}
        self._done = False

    # ----------------------------------------------------------------- locks
    def _lock(self, key: int, mode: LockMode) -> None:
        if self._done:
            raise TransactionError("transaction already finished")
        self.manager.locks.acquire(self.txn_id, key, mode)

    # ---------------------------------------------------------------- writes
    def _stage(self, update: UpdateRecord) -> None:
        self._lock(update.key, LockMode.EXCLUSIVE)
        prior = self._writes.get(update.key)
        if prior is None:
            self._writes[update.key] = update
        else:
            self._writes[update.key] = combine(prior, update, self.schema)

    def insert(self, record: tuple) -> None:
        key = self.schema.key(record)
        self._stage(UpdateRecord(0, key, UpdateType.INSERT, tuple(record)))

    def delete(self, key: int) -> None:
        self._stage(UpdateRecord(0, key, UpdateType.DELETE, None))

    def modify(self, key: int, changes: dict) -> None:
        self._stage(UpdateRecord(0, key, UpdateType.MODIFY, dict(changes)))

    # ----------------------------------------------------------------- reads
    def get(self, key: int) -> Optional[tuple]:
        """Point read under a shared lock, seeing own writes first."""
        self._lock(key, LockMode.SHARED)
        own = self._writes.get(key)
        base = None
        for record in self.manager.masm.range_scan(key, key):
            base = record
            break
        if own is None:
            return base
        from repro.core.update import apply_update

        stamped = UpdateRecord(2**62, key, own.type, own.content)
        return apply_update(base, stamped, self.schema)

    def range_scan(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        """Range read under shared locks (range lock = one resource here)."""
        self._lock(("range", begin_key, end_key), LockMode.SHARED)
        base = self.manager.masm.range_scan(begin_key, end_key)
        own = [
            UpdateRecord(2**62, k, u.type, u.content)
            for k, u in sorted(self._writes.items())
            if begin_key <= k <= end_key
        ]
        if not own:
            return base
        pairs = ((record, 0) for record in base)
        updates = MergeUpdates([self.manager.masm.codec.encode_columns(own)])
        return iter(MergeDataUpdates(pairs, updates, self.schema))

    # ---------------------------------------------------------------- finish
    def commit(self) -> Optional[int]:
        """Publish private updates with a commit timestamp, release locks.

        Returns the commit timestamp (None for read-only transactions).
        Serializability: conflicting transactions were serialized by their
        locks; MaSM's timestamp order then matches the lock order because
        timestamps are assigned while the exclusive locks are still held.
        """
        if self._done:
            raise TransactionError("transaction already finished")
        self._done = True
        commit_ts: Optional[int] = None
        try:
            if self._writes:
                commit_ts = self.manager.masm.oracle.next()
                for key in sorted(self._writes):
                    update = self._writes[key]
                    self.manager.masm.apply(
                        UpdateRecord(commit_ts, key, update.type, update.content)
                    )
        finally:
            self.manager.locks.release_all(self.txn_id)
        return commit_ts

    def abort(self) -> None:
        """Drop private updates and release locks; nothing was published."""
        self._done = True
        self._writes.clear()
        self.manager.locks.release_all(self.txn_id)
