"""The synthetic workload of Section 4.1/4.2.

A table of fixed-width records with even-numbered primary keys, "so that
odd-numbered keys can be used to generate insertions"; updates are drawn
randomly (uniform by default, optionally zipfian for the skew experiments)
across the whole table with the type (insert/delete/modify) chosen randomly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import Schema, synthetic_schema
from repro.engine.table import Table
from repro.storage.file import StorageVolume
from repro.storage.iosched import CpuMeter
from repro.txn.timestamps import TimestampOracle


def build_synthetic_table(
    volume: StorageVolume,
    num_records: int,
    record_size: int = 100,
    name: str = "synthetic",
    cpu: Optional[CpuMeter] = None,
    slack: float = 0.25,
) -> Table:
    """The 100-byte-record table, populated with even keys 0, 2, 4, ..."""
    schema = synthetic_schema(record_size)
    table = Table.create(volume, name, schema, num_records, cpu=cpu, slack=slack)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(num_records))
    return table


class ZipfSampler:
    """Ranked zipfian sampling over [0, n): P(rank i) ∝ 1 / (i+1)^s."""

    def __init__(self, n: int, s: float = 1.2, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("need at least one rank")
        self._rng = random.Random(seed)
        weights = [1.0 / (i + 1) ** s for i in range(n)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        self._cdf = cumulative
        # Fixed shuffle so hot ranks are spread across the key space rather
        # than clustered at its start.
        self._permutation = list(range(n))
        self._rng.shuffle(self._permutation)

    def sample(self) -> int:
        u = self._rng.random()
        return self._permutation[bisect_right(self._cdf, u)]


@dataclass
class UpdateMix:
    """Relative weights of update types in the generated stream."""

    insert: float = 1.0
    delete: float = 1.0
    modify: float = 1.0


class SyntheticUpdateGenerator:
    """Streams well-formed updates against a synthetic table.

    Tracks which keys are live so the stream never produces an ill-formed
    update (duplicate insert, delete of a missing key).  Distribution is
    ``"uniform"`` or ``"zipf"`` over key *positions* (Section 3.5's skew
    discussion).
    """

    def __init__(
        self,
        num_records: int,
        schema: Optional[Schema] = None,
        seed: int = 0,
        distribution: str = "uniform",
        zipf_s: float = 1.2,
        mix: Optional[UpdateMix] = None,
        oracle: Optional[TimestampOracle] = None,
    ) -> None:
        self.schema = schema or synthetic_schema()
        self.rng = random.Random(seed)
        self.oracle = oracle
        self.mix = mix or UpdateMix()
        self.num_records = num_records
        # Positions 0..2*num_records map to keys; even live, odd free.
        self._live = [i * 2 for i in range(num_records)]
        self._live_set = set(self._live)
        self._free_odd = num_records  # counter for fresh odd keys
        if distribution == "uniform":
            self._sampler = None
        elif distribution == "zipf":
            self._sampler = ZipfSampler(2 * num_records, s=zipf_s, seed=seed)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        total = self.mix.insert + self.mix.delete + self.mix.modify
        self._p_insert = self.mix.insert / total
        self._p_delete = self.mix.delete / total
        self._counter = 0

    # ---------------------------------------------------------------- drawing
    def _draw_position(self) -> int:
        if self._sampler is None:
            return self.rng.randrange(2 * self.num_records)
        return self._sampler.sample()

    def _timestamp(self) -> int:
        if self.oracle is not None:
            return self.oracle.next()
        self._counter += 1
        return self._counter

    def _payload(self) -> str:
        return f"upd-{self.rng.randrange(10**9)}"

    def next_update(self) -> UpdateRecord:
        """One well-formed update with a fresh timestamp."""
        ts = self._timestamp()
        roll = self.rng.random()
        if roll < self._p_insert or not self._live:
            key = self._fresh_key()
            self._live_set.add(key)
            self._live.append(key)
            return UpdateRecord(ts, key, UpdateType.INSERT, (key, self._payload()))
        position = self._draw_position()
        key = self._key_near(position)
        if roll < self._p_insert + self._p_delete:
            self._live_set.discard(key)
            # Lazy removal from the list: swap-delete on lookup.
            return UpdateRecord(ts, key, UpdateType.DELETE, None)
        return UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": self._payload()})

    def _fresh_key(self) -> int:
        key = self._free_odd * 2 + 1
        self._free_odd += 1
        return key

    def _key_near(self, position: int) -> int:
        """A live key chosen by the (possibly skewed) position draw."""
        if not self._live:
            raise RuntimeError("no live keys to update")
        index = position % len(self._live)
        key = self._live[index]
        while key not in self._live_set:
            # Compact lazily deleted entries.
            self._live[index] = self._live[-1]
            self._live.pop()
            if not self._live:
                raise RuntimeError("no live keys to update")
            index = position % len(self._live)
            key = self._live[index]
        return key

    def stream(self, count: Optional[int] = None) -> Iterator[UpdateRecord]:
        """An (optionally bounded) stream of updates."""
        produced = 0
        while count is None or produced < count:
            yield self.next_update()
            produced += 1


@dataclass
class ArrivalPhase:
    """One constant-rate stretch of an arrival schedule."""

    #: Updates per simulated second (must be > 0).
    rate: float
    #: Updates arriving during this phase.
    count: int

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"phase rate must be > 0, got {self.rate}")
        if self.count < 0:
            raise ValueError(f"phase count must be >= 0, got {self.count}")

    @property
    def duration(self) -> float:
        return self.count / self.rate


class FloodSchedule:
    """A piecewise-constant arrival schedule for overload experiments.

    The governor experiments (Section 7.3 / Figure 12 flavour) need traffic
    whose *arrival rate* is controlled relative to the engine's sustainable
    migration rate — a steady trickle, a short burst at 10x, a sustained
    2x flood.  A schedule is a list of :class:`ArrivalPhase`; iterate
    :meth:`arrival_times` for the absolute simulated arrival instant of
    every update.
    """

    def __init__(self, phases: Sequence[ArrivalPhase]) -> None:
        if not phases:
            raise ValueError("schedule needs at least one phase")
        self.phases = list(phases)

    @classmethod
    def steady(cls, rate: float, count: int) -> "FloodSchedule":
        """A single constant-rate phase."""
        return cls([ArrivalPhase(rate, count)])

    @classmethod
    def burst(
        cls,
        base_rate: float,
        burst_rate: float,
        base_count: int,
        burst_count: int,
        cycles: int = 1,
    ) -> "FloodSchedule":
        """Alternating base-load and burst phases, ``cycles`` times over."""
        phases: list[ArrivalPhase] = []
        for _ in range(max(1, cycles)):
            phases.append(ArrivalPhase(base_rate, base_count))
            phases.append(ArrivalPhase(burst_rate, burst_count))
        return cls(phases)

    @property
    def duration(self) -> float:
        return sum(phase.duration for phase in self.phases)

    def arrival_times(self, start: float = 0.0) -> Iterator[float]:
        """Absolute arrival instants, phase by phase."""
        t = start
        for phase in self.phases:
            gap = 1.0 / phase.rate
            for _ in range(phase.count):
                t += gap
                yield t


class PoissonProcess:
    """Open-loop Poisson arrivals: exponential inter-arrival gaps at ``rate``.

    The serving layer's open-loop sessions draw arrival instants from one of
    these — arrivals keep coming whether or not earlier requests finished,
    which is what makes overload visible as queueing delay (a closed-loop
    client would politely slow down and hide it).  Deterministic: the gap
    stream is a pure function of ``(rate, seed)``, seeded the same
    hash-independent way as the simulator's actors.
    """

    def __init__(self, rate: float, seed: int = 0, phase: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be > 0, got {rate}")
        self.rate = rate
        self.phase = phase
        self._rng = random.Random(f"poisson:{seed}")

    def arrival_times(self, start: float = 0.0) -> Iterator[float]:
        """Unbounded absolute arrival instants from ``start + phase``."""
        t = start + self.phase
        while True:
            t += self._rng.expovariate(self.rate)
            yield t


class BurstyProcess:
    """Open-loop on/off arrivals: Poisson bursts separated by silent gaps.

    Each burst draws ``burst_len`` arrivals at ``burst_rate``; between
    bursts the source goes quiet for an exponential gap with mean
    ``idle_seconds``.  The time-averaged rate is below ``burst_rate``, but
    every burst momentarily hammers the front door — the arrival pattern
    tenant quotas exist to contain.
    """

    def __init__(
        self,
        burst_rate: float,
        burst_len: int,
        idle_seconds: float,
        seed: int = 0,
        phase: float = 0.0,
    ) -> None:
        if burst_rate <= 0:
            raise ValueError(f"burst rate must be > 0, got {burst_rate}")
        if burst_len < 1:
            raise ValueError(f"burst length must be >= 1, got {burst_len}")
        if idle_seconds < 0:
            raise ValueError(f"idle gap must be >= 0, got {idle_seconds}")
        self.burst_rate = burst_rate
        self.burst_len = burst_len
        self.idle_seconds = idle_seconds
        self.phase = phase
        self._rng = random.Random(f"bursty:{seed}")

    def arrival_times(self, start: float = 0.0) -> Iterator[float]:
        """Unbounded absolute arrival instants from ``start + phase``."""
        t = start + self.phase
        while True:
            for _ in range(self.burst_len):
                t += self._rng.expovariate(self.burst_rate)
                yield t
            if self.idle_seconds:
                t += self._rng.expovariate(1.0 / self.idle_seconds)


def flood_stream(
    generator: SyntheticUpdateGenerator,
    schedule: FloodSchedule,
    start: float = 0.0,
) -> Iterator[tuple[float, UpdateRecord]]:
    """Pair a well-formed update stream with scheduled arrival times.

    Yields ``(arrival_time, update)``; the driver advances the shared
    SimClock to each arrival time before calling ``masm.apply`` so that
    admission control and backpressure read realistic inter-arrival gaps.
    """
    for arrival in schedule.arrival_times(start):
        yield arrival, generator.next_update()


def range_for_bytes(table: Table, size_bytes: int, rng: random.Random) -> tuple[int, int]:
    """A random key range whose records cover about ``size_bytes``.

    Used by the Figure 9/10 sweeps ("varying the range size from 100GB to
    4KB"), scaled to whatever the table actually holds.
    """
    records = max(1, size_bytes // table.schema.record_size)
    max_key = 2 * table.row_count
    span = min(records * 2, max_key)  # keys step by 2
    begin = rng.randrange(0, max(1, max_key - span))
    return begin, begin + span - 1
