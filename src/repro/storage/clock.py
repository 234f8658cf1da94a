"""Simulated wall clock shared by an experiment.

The repro library separates *what happens* (bytes actually stored and moved,
so correctness is real) from *how long it takes* (service times computed by
analytic device models, so a "100 GB" experiment finishes in milliseconds of
host time).  :class:`SimClock` is the single timeline an experiment advances
as simulated work completes.
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

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds since the experiment started."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ValueError(f"clock cannot move backwards (delta={delta})")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Move the clock forward to ``when`` if it is in the future."""
        if when > self._now:
            self._now = when
        return self._now

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f}s)"
