"""Machine-speed calibration for wall-clock metrics.

On a shared 2-core box the same code runs 10-20% faster or slower from one
process (or one second) to the next, which is larger than the regressions
the benchmark has to catch.  Every timed round is therefore interleaved
with a fixed pure-Python loop whose cost moves with the same things the
engine's cost moves with (interpreter speed, clock frequency, a noisy
neighbour), and wall-clock readings are reported *at reference machine
speed*:

    seconds_at_reference = seconds_measured * CALIB_REF_SECONDS / calib_seconds

``CALIB_REF_SECONDS`` is frozen: changing it rescales every wall-clock
metric, so it changes only together with a re-measured baseline.
"""

from __future__ import annotations

import statistics
import struct
import time

#: Seconds one :func:`calibrate` loop took on the box the baseline was
#: measured on.  Frozen (see module docstring).
CALIB_REF_SECONDS = 0.0015

#: Iterations of the calibration loop body (fixed: it defines the unit).
CALIB_ITERATIONS = 4_000

#: Loops per reading.  A reading is their *mean*: a loop that was preempted
#: counts, because the timed work next to it is preempted at the same rate.
CALIB_LOOPS = 4

#: Seconds of timed work between readings inside one round.  Machine speed
#: moves in steps a second or so apart; readings this close together see the
#: same steps the work sees, in the same proportion.
CALIB_CADENCE = 0.05

#: A round whose first and last readings differ by more than this fraction
#: was measured while the machine's speed was changing; it is left out of
#: the per-request latency sample (and counted in ``machine.rounds_discarded``).
CALIB_DRIFT_LIMIT = 0.15

_RECORD = struct.Struct("<QQB32s")
_perf = time.perf_counter


def _loop() -> int:
    """The unit of work: struct codec, tuples, a dict, a list sort —
    the same interpreter operations the engine's hot paths are made of."""
    pack = _RECORD.pack
    unpack = _RECORD.unpack
    table: dict[int, tuple] = {}
    keys: list[int] = []
    append = keys.append
    for i in range(CALIB_ITERATIONS):
        key = (i * 2654435761) & 0xFFFF
        raw = pack(i, key, i & 3, b"payload")
        ts, key, op, payload = unpack(raw)
        table[key & 1023] = (ts, key, op, payload.rstrip(b"\x00"))
        append(key)
    keys.sort()
    return len(table) + len(keys)


def calibrate() -> float:
    """One reading: mean seconds of :data:`CALIB_LOOPS` unit loops."""
    start = _perf()
    for _ in range(CALIB_LOOPS):
        _loop()
    return (_perf() - start) / CALIB_LOOPS


class Meter:
    """Calibration readings interleaved with one timed section.

    Opens with ``edge`` readings, takes another whenever :meth:`tick` finds
    :data:`CALIB_CADENCE` seconds gone since the last, and closes with
    ``edge`` more.  A section that cannot be interrupted (a set-up, a
    recovery) has only its edges, so it asks for more than one.

    >>> m = Meter(); ...work...; m.tick(); ...work...; m.close()
    >>> seconds_at_reference = seconds * m.factor
    """

    __slots__ = ("readings", "edge", "_mark")

    def __init__(self, edge: int = 1) -> None:
        self.readings: list[float] = []
        self.edge = edge
        self.read(edge)

    def read(self, times: int = 1) -> None:
        for _ in range(times):
            self.readings.append(calibrate())
        self._mark = _perf()

    def tick(self) -> None:
        if _perf() - self._mark >= CALIB_CADENCE:
            self.read()

    def close(self) -> "Meter":
        self.read(self.edge)
        return self

    @property
    def seconds(self) -> float:
        return statistics.fmean(self.readings)

    @property
    def factor(self) -> float:
        """Multiply a measured duration by this to get reference seconds."""
        return CALIB_REF_SECONDS / self.seconds

    @property
    def drifted(self) -> bool:
        edge = self.edge
        first = statistics.fmean(self.readings[:edge])
        last = statistics.fmean(self.readings[-edge:])
        low, high = sorted((first, last))
        return (high - low) / low > CALIB_DRIFT_LIMIT


def summarize(meters: list[Meter]) -> dict[str, float]:
    """``machine.calib_*`` diagnostics over every reading of a run."""
    readings = [r for m in meters for r in m.readings]
    median = statistics.median(readings)
    q1, _, q3 = statistics.quantiles(readings, n=4)
    return {
        "calib_ops_per_s": CALIB_ITERATIONS / median,
        "calib_iqr": (q3 - q1) / median,
    }
