"""Simulated wall clock shared by an experiment.

The repro library separates *what happens* (bytes actually stored and moved,
so correctness is real) from *how long it takes* (service times computed by
analytic device models, so a "100 GB" experiment finishes in milliseconds of
host time).  :class:`SimClock` is the single timeline an experiment advances
as simulated work completes.

Each device operation is charged through :meth:`SimClock.charge`.  Outside
an :class:`OverlapScope` that is a plain advance: operations run one after
another.  Inside one (one node's request: a scan with its preamble, a
migration) each device — a *lane* — serves its own operations back to
back, starting no earlier than the scope's last sync point, and the clock
stands at the latest finish: the libaio overlap of Section 3.7, where the
SSD reads a scan's cached updates while the disk reads the table.
"""

from __future__ import annotations

from typing import Iterator, Optional


class SimClock:
    """A monotonically advancing simulated clock, in seconds.

    The clock never moves backwards, with one scoped exception: a fork
    (:meth:`branches`, :meth:`concurrently`) rewinds to its origin before
    each branch, and never below it.  :meth:`advance` with a negative delta
    is rejected because it always indicates an accounting bug in a device
    model.
    """

    __slots__ = ("_now", "_scope")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: The active :class:`OverlapScope`, or None (operations are serial).
        self._scope: Optional[OverlapScope] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds since the experiment started."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time.

        A wait that is no device operation (retry backoff, admission delay,
        a governor's wait): inside a scope it is a sync point, and every
        later operation starts no earlier than its end."""
        if delta < 0:
            raise ValueError(f"clock cannot move backwards (delta={delta})")
        self._now += delta
        if self._scope is not None:
            self._scope.sync = self._now
        return self._now

    def advance_to(self, when: float) -> float:
        """Move the clock forward to ``when`` if it is in the future (a
        sync point inside a scope, like :meth:`advance`)."""
        if when > self._now:
            self._now = when
            if self._scope is not None:
                self._scope.sync = when
        return self._now

    def charge(self, lane, seconds: float) -> None:
        """Charge one device operation of ``seconds`` on ``lane`` (the
        device serving it): the clock advances by ``seconds`` outside a
        scope, and per the scope's rules inside one."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative service time ({seconds})")
        scope = self._scope
        if scope is None:
            self._now += seconds
            return
        lanes = scope.lanes
        start = lanes.get(lane, scope.sync)
        if start < scope.sync:
            start = scope.sync
        finish = lanes[lane] = start + seconds
        if finish > self._now:
            self._now = finish

    def barrier(self, lane) -> None:
        """The next operation on ``lane`` commits what came before it (a
        WAL record that commits a run-set or heap edit): inside a scope it
        starts only once every lane has finished; outside, ops are serial
        anyway."""
        scope = self._scope
        if scope is not None:
            lanes = scope.lanes
            lanes[lane] = max(self._now, max(lanes.values(), default=0.0))

    def overlap(self) -> "OverlapScope":
        """A new overlap scope starting now; ``with`` it (or
        :meth:`OverlapScope.steps`) to run work inside it."""
        return OverlapScope(self)

    def branches(self, items, origin: Optional[float] = None) -> Iterator:
        """Yield each item as the start of a concurrent branch: the loop
        body is the branch, so a fork pays no call per branch.

        Every branch starts at the same origin instant (the clock steps back
        to it before each branch after the first: the only place the clock
        moves backwards, and never below the origin), and once the loop is
        done the clock stands at the latest finish: the fork costs its
        slowest branch, not the sum.  The origin is now unless ``origin``
        names an earlier instant: then the work done since is one more
        branch, already run.  A loop left early (``break``, or a branch
        that raises) closes the generator, and the clock stands at the
        furthest instant any branch reached.

        Only work that shares no timed resource may fork: each branch must
        see exactly the timeline it would see alone (device service times
        never read the clock; per-node breakers, trackers and fault plans
        are each touched by one branch only).
        """
        finish = self._now
        if origin is None:
            origin = finish
        elif origin > finish:
            raise ValueError(f"fork origin {origin} is in the future")
        try:
            for item in items:
                self._now = origin
                yield item
                if self._now > finish:
                    finish = self._now
        finally:
            if finish > self._now:
                self._now = finish

    def concurrently(self, fn, items, *args) -> list:
        """Run ``fn(item, *args)`` for each item as a concurrent branch
        (see :meth:`branches`); results come back in item order.  If a
        branch raises, the error propagates and later branches do not run.
        """
        forks = self.branches(items)
        try:
            return [fn(item, *args) for item in forks]
        finally:
            forks.close()

    def reset(self) -> None:
        """Restart the timeline at zero (used between benchmark repetitions)."""
        self._now = 0.0
        self._scope = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f}s)"


class OverlapScope:
    """One node request's window of overlapping device work.

    While the scope is active, each device is a lane serving its own
    operations back to back; an operation starts at the later of its lane's
    previous finish and :attr:`sync`, the scope's last sync point, and the
    clock stands at the latest finish.  The scope is active only while its
    request's own code runs: ``with scope:`` around eager work, and
    :meth:`steps` around each pull of a lazy stream, so work done while the
    stream is suspended (an update, another request) is never charged into
    it.  If the clock moved while the scope was inactive, resuming makes
    that instant a sync point: nothing is back-dated before outside work.

    Entering while another scope is active joins that one (a migration
    inside a scan's preamble is part of the scan's request); leaving an
    inactive scope does nothing, so an abandoned or failed stream leaves
    the clock serial.  A scope holds no clock state once left: closing it
    is leaving it.
    """

    __slots__ = ("clock", "sync", "lanes", "_left")

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        #: Operations start no earlier than this instant.
        self.sync = clock.now
        #: lane -> the instant its last operation finishes.
        self.lanes: dict = {}
        self._left = self.sync

    def __enter__(self) -> "OverlapScope":
        clock = self.clock
        if clock._scope is None:
            if clock._now != self._left:
                self.sync = clock._now
            clock._scope = self
        return self

    def __exit__(self, *exc) -> None:
        clock = self.clock
        if clock._scope is self:
            clock._scope = None
            self._left = clock._now

    def steps(self, iterable) -> Iterator:
        """Yield ``iterable``'s items, each one produced inside the scope."""
        items = iter(iterable)
        while True:
            with self:
                item = next(items, _END)
            if item is _END:
                return
            yield item


_END = object()
