"""The row-at-a-time fan-out drain, kept for the fan-out tests.

``ReplicaSet.scan`` hands rows over a stride-sized list at a time, and the
router's ``_attempt``/``_hedge`` drain it with ``extend(islice(...))``,
checking the deadline and the hedge delay once per full stride.  These are
the literal per-row loops that drain must agree with: a generator that
yields one row at a time and consults the replica's fault plan after every
``STRIDE``-th row, two router loops that ``append`` each row and test
``len(rows) % STRIDE``, and a ``heapq.merge`` of the shards keyed by
``Schema.key``.  Every guard, deadline check, hedge decision and scan-end
finalizer happens at the same row count and clock value in both, so a test
can run one world through each and compare the logs.  Production code does
not import this module.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from repro.errors import DeadlineExceededError, ReplicationError, StorageError
from repro.server.router import ReplicatedBackend

#: Rows between fault-plan, deadline and hedge checks.  A literal, not the
#: shipped constant: a change of the shipped stride must show as a diff.
STRIDE = 64


def scan(
    rset, begin_key: int, end_key: int, query_ts: int, replica_id: Optional[int] = None
) -> Iterator[tuple]:
    """``ReplicaSet.scan`` one row at a time: the guard runs when the row
    after every ``STRIDE``-th is pulled."""
    replica = rset.replicas[rset.primary_id if replica_id is None else replica_id]
    rset._guard(replica)
    inner = replica.masm.range_scan(begin_key, end_key, query_ts=query_ts)

    def stream() -> Iterator[tuple]:
        emitted = 0
        for row in inner:
            yield row
            emitted += 1
            if emitted % STRIDE == 0:
                rset._guard(replica)

    return stream()


class ReferenceBackend(ReplicatedBackend):
    """:class:`ReplicatedBackend` with the per-row drains and merge."""

    def _scan_partition(self, lo, hi, query_ts, deadline, outcome) -> list:
        per_shard = self.clock.concurrently(
            self._scan_shard,
            range(self.warehouse.num_shards),
            lo,
            hi,
            query_ts,
            deadline,
            outcome,
        )
        return list(heapq.merge(*per_shard, key=self.warehouse.schema.key))

    def _stream(self, shard_id, lo, hi, query_ts, replica_id):
        return scan(self.warehouse.shards[shard_id], lo, hi, query_ts, replica_id)

    def _attempt(self, shard_id, replica_id, lo, hi, query_ts, deadline, outcome):
        health = self.health.for_replica(shard_id, replica_id)
        self.health.budget.earn()
        hedge_delay = self.health.hedge_delay(shard_id, replica_id)
        start = self.clock.now
        rows: list = []
        hedged = False
        try:
            stream = self._stream(shard_id, lo, hi, query_ts, replica_id)
            for row in stream:
                rows.append(row)
                if len(rows) % STRIDE:
                    continue
                if deadline is not None:
                    deadline.check()
                if (
                    not hedged
                    and hedge_delay is not None
                    and self.clock.now - start > hedge_delay
                ):
                    hedged = True
                    hedge_start = self.clock.now
                    backup_rows = self._hedge(
                        shard_id, replica_id, lo, hi, query_ts, deadline, outcome
                    )
                    if backup_rows is not None:
                        if rows != backup_rows[: len(rows)]:
                            self._obs_divergence.add(1)
                            self._schedule_repair(shard_id, "hedge-divergence")
                        self._obs_cancelled.add(1)
                        return backup_rows
                    start += self.clock.now - hedge_start
        except (StorageError, ReplicationError):
            health.failure()
            self._schedule_repair(shard_id, "scan-failure")
            return None
        except DeadlineExceededError:
            health.failure()
            raise
        health.success(self.clock.now - start)
        return rows

    def _hedge(self, shard_id, serving_id, lo, hi, query_ts, deadline, outcome):
        backup_id = self._pick_backup(shard_id, serving_id)
        if backup_id is None or not self.health.budget.spend():
            return None
        outcome.hedges += 1
        self._obs_hedges.add(1)
        backup = self.health.for_replica(shard_id, backup_id)
        if not backup.allow():
            outcome.hedge_losses += 1
            self._obs_hedge_losses.add(1)
            return None
        start = self.clock.now
        rows: list = []
        try:
            stream = self._stream(shard_id, lo, hi, query_ts, backup_id)
            for row in stream:
                rows.append(row)
                if deadline is not None and not len(rows) % STRIDE:
                    deadline.check()
        except (StorageError, ReplicationError):
            backup.failure()
            self._schedule_repair(shard_id, "hedge-scan-failure")
            outcome.hedge_losses += 1
            self._obs_hedge_losses.add(1)
            return None
        backup.success(self.clock.now - start)
        outcome.hedge_wins += 1
        self._obs_hedge_wins.add(1)
        return rows
