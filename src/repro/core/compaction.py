"""Cost-based incremental compaction of the materialized run stack.

The structural merge policy (``MaSM._merge_earliest_runs``) picks victims by
position and runs each merge to completion inside a scan's preamble — under
load one big merge spikes p99.9 scan latency.  This module replaces *when*
and *what* to merge with a modeled decision, and *how* with bounded slices:

* **Scoring.**  :func:`score_candidates` ranks contiguous windows of 1-pass
  runs by benefit/cost: read amplification saved (``n - 1`` fewer sources
  per overlapping scan), weighted by observed scan traffic per run (from
  ``repro.obs`` counters), plus an unbounded aging term so a cold window can
  never be starved forever — divided by the modeled device time of the merge
  (sequential bandwidth plus per-command latency from the
  :class:`~repro.storage.device.DeviceProfile`).  The function is pure:
  same (manifest, traffic, profile, now, config) → same ranking, with a
  deterministic ``(-score, names)`` tie-break.

* **Incremental execution.**  The chosen merge runs as WAL-fenced key-range
  *slices*, the way :func:`~repro.core.migration.migrate_range` slices
  migration.  Each slice logs a ``MERGE_SLICE`` record *before* writing its
  product run (the ``RUN_MERGE`` commit-point protocol, per slice): after a
  crash, an intact product file means the slice committed and recovery masks
  the victims' range; a missing product means the victims stay
  authoritative.  Victim key ranges already sliced out are masked via
  ``MaterializedSortedRun.mark_merged`` so scans never see a record twice.

* **Publication barrier.**  A scan snapshots the run list at registration
  but reads victim masks lazily, so a committed slice is *published* (victim
  ranges masked + product appended to ``masm.runs``) only while no scan is
  in flight; until then it waits in a pending queue.  Victims are retired —
  through the ``barrier_ts`` graveyard — once their masks cover the whole
  key space and every slice is published.

* **Co-scheduling.**  The :class:`~repro.core.governor.LoadGovernor` decides
  when slices run: nothing at CRITICAL occupancy (migration owns the
  device), a slice between scans otherwise, metered by an optional token
  bucket; a :class:`~repro.core.governor.PacingController` adapts the slice
  size so one slice's device time tracks ``target_stall_seconds``.  When
  slicing falls behind a burst, an emergency *structural* fallback restores
  the paper's run-count bound, excluding locked plan victims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.core import kernels
from repro.core.governor import STATE_CRITICAL, PacingController, TokenBucket
from repro.core.sortedrun import MaterializedSortedRun, write_run
from repro.errors import OutOfSpaceError, StorageError
from repro.obs import get_registry, trace
from repro.sim.hooks import interleave as sim_interleave
from repro.storage.device import DeviceProfile
from repro.storage.faults import crash_point
from repro.util.search import key_position

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.masm import MaSM

KEY_MAX = 2**63 - 1
FULL_KEY_RANGE = (0, KEY_MAX)


@dataclass
class CompactionConfig:
    """Tunables for one :class:`CompactionScheduler`."""

    #: Max victims per plan; None uses the engine's ``merge_fan_in``.
    fan_in: Optional[int] = None
    #: Floor on records per slice (keeps degenerate slices from thrashing).
    min_slice_records: int = 256
    #: Pacing target for one slice's device time, in simulated seconds.
    target_stall_seconds: float = 0.02
    #: Bounds on the fraction of the plan's records one slice may cover.
    min_slice_fraction: float = 1.0 / 256.0
    max_slice_fraction: float = 0.5
    #: Token-bucket rate for slices per simulated second; None = unmetered.
    slice_rate: Optional[float] = None
    #: Token-bucket burst, in slices.
    burst: float = 4.0
    #: Benefit added per timestamp unit a candidate's oldest run has waited.
    #: Unbounded growth is the anti-starvation guarantee: a cold window's
    #: score eventually overtakes any traffic-weighted one.
    aging_weight: float = 1e-3
    #: Structural fallback threshold: merge structurally (excluding locked
    #: plan victims) once the run count overshoots the plan trigger by this
    #: many runs.
    emergency_slack: int = 2
    #: Run-count trigger for starting a plan.  ``None`` uses the engine's
    #: derived ``query_pages`` budget; tests and the simulator pin a small
    #: explicit value so compaction fires on miniature workloads.
    trigger_runs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fan_in is not None and self.fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {self.fan_in}")
        if self.min_slice_records < 1:
            raise ValueError(
                f"min_slice_records must be >= 1, got {self.min_slice_records}"
            )
        if self.target_stall_seconds <= 0:
            raise ValueError(
                f"target_stall_seconds must be > 0, got {self.target_stall_seconds}"
            )
        if not 0.0 < self.min_slice_fraction <= self.max_slice_fraction <= 1.0:
            raise ValueError(
                "slice fractions must satisfy 0 < min <= max <= 1, got "
                f"{self.min_slice_fraction}/{self.max_slice_fraction}"
            )
        if self.slice_rate is not None and self.slice_rate <= 0:
            raise ValueError(f"slice_rate must be > 0, got {self.slice_rate}")
        if self.aging_weight < 0:
            raise ValueError(f"aging_weight must be >= 0, got {self.aging_weight}")
        if self.emergency_slack < 0:
            raise ValueError(
                f"emergency_slack must be >= 0, got {self.emergency_slack}"
            )
        if self.trigger_runs is not None and self.trigger_runs < 1:
            raise ValueError(
                f"trigger_runs must be >= 1, got {self.trigger_runs}"
            )


@dataclass(frozen=True)
class RunStat:
    """The slice of one run's state the cost model is allowed to see."""

    name: str
    size_bytes: int
    blocks: int
    count: int
    min_key: int
    max_key: int
    min_ts: int
    passes: int


@dataclass(frozen=True)
class CandidateScore:
    """One scored victim window, ready for deterministic ranking."""

    names: tuple[str, ...]
    benefit: float
    cost_seconds: float
    score: float


def manifest_of(runs: Sequence[MaterializedSortedRun]) -> tuple[RunStat, ...]:
    """Project live runs onto the pure inputs of :func:`score_candidates`."""
    return tuple(
        RunStat(
            name=run.name,
            size_bytes=run.size_bytes,
            blocks=run.num_blocks,
            count=run.count,
            min_key=run.min_key,
            max_key=run.max_key,
            min_ts=run.min_ts,
            passes=run.passes,
        )
        for run in runs
    )


def estimate_merge_seconds(
    total_bytes: int, total_blocks: int, profile: DeviceProfile
) -> float:
    """Modeled device time for merging ``total_bytes`` across ``total_blocks``.

    A merge reads every victim byte and writes it back once, both with large
    sequential I/Os; per-command latencies amortize across the device's
    internal parallelism.  The model intentionally mirrors the analytic
    :class:`DeviceProfile` fields rather than measuring, so scoring stays a
    pure function.
    """
    read_bw = profile.seq_read_bw if profile.seq_read_bw > 0 else 1.0
    write_bw = profile.seq_write_bw if profile.seq_write_bw > 0 else read_bw
    seconds = total_bytes / read_bw + total_bytes / write_bw
    parallelism = max(1, profile.internal_parallelism)
    seconds += (
        total_blocks * (profile.read_latency + profile.write_latency) / parallelism
    )
    return seconds


def score_candidates(
    manifest: Sequence[RunStat],
    traffic: Mapping[str, float],
    profile: DeviceProfile,
    now_ts: int,
    config: CompactionConfig,
    fan_in: int,
) -> list[CandidateScore]:
    """Rank candidate victim windows, best first.

    Candidates are contiguous windows (manifest order == creation order) of
    1-pass runs, sizes 2..``fan_in``; when fewer than two 1-pass runs exist
    the first two manifest entries form the degenerate fallback (mirroring
    the structural policy).  Pure and hash-order independent: every input is
    an explicit argument, windows are enumerated in list order, and ties
    break on the lexicographically smallest name tuple.
    """
    one_pass = tuple(stat for stat in manifest if stat.passes == 1)
    windows: list[tuple[RunStat, ...]] = []
    for size in range(2, max(2, min(fan_in, len(one_pass))) + 1):
        for start in range(len(one_pass) - size + 1):
            windows.append(one_pass[start : start + size])
    if not windows and len(manifest) >= 2:
        windows.append(tuple(manifest[:2]))
    total_traffic = sum(traffic.get(stat.name, 0.0) for stat in manifest)
    scored: list[CandidateScore] = []
    for window in windows:
        hits = sum(traffic.get(stat.name, 0.0) for stat in window)
        # With no observed traffic at all, every window is equally hot.
        weight = hits / total_traffic if total_traffic > 0 else 1.0
        age = max(0, now_ts - min(stat.min_ts for stat in window))
        benefit = (len(window) - 1) * weight + config.aging_weight * age
        cost = estimate_merge_seconds(
            sum(stat.size_bytes for stat in window),
            sum(stat.blocks for stat in window),
            profile,
        )
        scored.append(
            CandidateScore(
                names=tuple(stat.name for stat in window),
                benefit=benefit,
                cost_seconds=cost,
                score=benefit / cost if cost > 0 else benefit,
            )
        )
    scored.sort(key=lambda c: (-c.score, c.names))
    return scored


@dataclass
class CompactionPlan:
    """One in-flight incremental merge: locked victims plus a sweep cursor."""

    victims: list[MaterializedSortedRun]
    passes: int
    cursor: int = 0
    #: Set when the final slice (open-ended to KEY_MAX) has been emitted.
    done: bool = False
    slices: int = 0
    total_count: int = 0


@dataclass
class PendingSlice:
    """A durably committed slice awaiting scan-safe publication."""

    product: MaterializedSortedRun
    lo: int
    hi: int
    victims: list[MaterializedSortedRun] = field(default_factory=list)


class CompactionScheduler:
    """Cost-scored, governor-paced incremental run merging for one engine."""

    def __init__(
        self, masm: "MaSM", config: Optional[CompactionConfig] = None
    ) -> None:
        self.masm = masm
        self.config = config or CompactionConfig()
        self.clock = masm.ssd.device.clock
        self.fan_in = self.config.fan_in or masm.params.merge_fan_in
        self.pacer = PacingController(
            self.config.target_stall_seconds,
            self.config.min_slice_fraction,
            self.config.max_slice_fraction,
        )
        self.bucket: Optional[TokenBucket] = (
            TokenBucket(self.config.slice_rate, self.config.burst, now=self.clock.now)
            if self.config.slice_rate is not None
            else None
        )
        self.plan: Optional[CompactionPlan] = None
        self.pending: list[PendingSlice] = []
        registry = get_registry()
        scope = f"compaction.{masm.name}"
        self.scope = scope
        self._traffic_scope = f"{masm.name}.compaction.traffic"
        self._plans = registry.counter(f"{scope}.plans_started")
        self._resumed = registry.counter(f"{scope}.plans_resumed")
        self._abandoned = registry.counter(f"{scope}.plans_abandoned")
        self._slices = registry.counter(f"{scope}.slices_emitted")
        self._applied = registry.counter(f"{scope}.slices_applied")
        self._retired = registry.counter(f"{scope}.victims_retired")
        self._emergency = registry.counter(f"{scope}.emergency_merges")
        self._aborted = registry.counter(f"{scope}.slices_aborted")
        self._slice_hist = registry.histogram(f"{scope}.slice_seconds")

    # ------------------------------------------------------------ observation
    @property
    def busy(self) -> bool:
        """True while a plan is open or committed slices await publication.

        Checkpoints must not be cut while this holds: the manifest format
        does not carry merge masks, and truncating a ``MERGE_SLICE`` record
        whose product is not yet in a manifest would orphan it.
        """
        return self.plan is not None or bool(self.pending)

    def observe_scan(
        self,
        runs: Sequence[MaterializedSortedRun],
        begin_key: int,
        end_key: int,
    ) -> None:
        """Count one scan against every run it overlaps (traffic weights)."""
        registry = get_registry()
        for run in runs:
            if run.min_key <= end_key and run.max_key >= begin_key:
                registry.counter(f"{self._traffic_scope}.{run.name}").add(1)

    def _traffic_snapshot(
        self, manifest: Sequence[RunStat]
    ) -> dict[str, float]:
        registry = get_registry()
        return {
            stat.name: registry.counter(
                f"{self._traffic_scope}.{stat.name}"
            ).value
            for stat in manifest
        }

    # ------------------------------------------------------------- scheduling
    def maybe_step(self) -> bool:
        """Governed entry point: publish what is safe, then run one slice.

        Called between scans (directly or via the governor).  Watermark
        bands and the token bucket gate the slice; device-full aborts are
        counted and retried on a later step, never raised into a scan.
        """
        with self.masm._lock:
            self.apply_pending()
            if not self._should_step():
                return False
            try:
                return self.step()
            except OutOfSpaceError:
                self._aborted.add(1)
                return False
            except StorageError:
                # A victim file vanished mid-slice: this scheduler belongs
                # to a torn-down engine (e.g. a pre-crash scan unwinding
                # after recovery replaced the volume contents).  Drop every
                # in-flight plan — committed slices are WAL-fenced, so the
                # live engine's recovery already owns the durable truth.
                self._aborted.add(1)
                if self.plan is not None:
                    for run in self.plan.victims:
                        run.compacting = False
                    self.plan = None
                self.pending.clear()
                return False

    def _should_step(self) -> bool:
        masm = self.masm
        if self.plan is None and not self._needs_plan():
            return False
        governor = masm.governor
        if governor is not None and governor.watermark_state() >= STATE_CRITICAL:
            # Migration owns the device: compacting now would steal the
            # bandwidth make_room needs to avoid a forced full migration.
            return False
        if self.bucket is not None and not self.bucket.take(self.clock.now):
            return False
        return True

    def _needs_plan(self) -> bool:
        masm = self.masm
        # A crash (or an abandoned plan) can leave partially merged victims:
        # their masks block checkpointing, so resuming them takes priority
        # over the run-count trigger.
        if any(r.merged_ranges and not r.compacting for r in masm.runs):
            return True
        return len(masm.runs) > self._trigger()

    def _trigger(self) -> int:
        if self.config.trigger_runs is not None:
            return self.config.trigger_runs
        return self.masm.params.query_pages

    def step(self) -> bool:
        """Run one merge slice (starting a plan if needed); True on work."""
        masm = self.masm
        with masm._lock:
            sim_interleave("compaction.step")
            self.apply_pending()
            if self.plan is None:
                self.maybe_start_plan()
            plan = self.plan
            if plan is None or plan.done:
                # done-but-unpublished: only the scan barrier remains.
                return False
            before = self._measure_start()
            with trace(
                f"{self.scope}.slice", cursor=plan.cursor, victims=len(plan.victims)
            ):
                emitted = self._emit_slice(plan)
            duration = self._measure_elapsed(before)
            self.pacer.observe(duration)
            self._slice_hist.observe(duration)
            self.apply_pending()
            return emitted

    def maybe_start_plan(self) -> None:
        """Lock a victim set: resume interrupted merges, else score fresh."""
        masm = self.masm
        if self.plan is not None or self.pending:
            return
        resumable = [
            r for r in masm.runs if r.merged_ranges and not r.quarantined
        ]
        if resumable:
            # Slices are contiguous from key 0, so each victim's mask is one
            # span starting at 0; resume above the lowest mask top (a lower
            # cursor only re-reads masked — hence empty — key range).
            if all(r.merged_ranges[0][0] == 0 for r in resumable):
                cursor = min(r.merged_ranges[0][1] for r in resumable) + 1
            else:  # pragma: no cover - defensive: foreign mask shape
                cursor = 0
            passes = (
                2
                if all(r.passes == 1 for r in resumable)
                else max(r.passes for r in resumable) + 1
            )
            for run in resumable:
                run.compacting = True
            self.plan = CompactionPlan(
                victims=resumable,
                passes=passes,
                cursor=cursor,
                total_count=sum(r.count for r in resumable),
            )
            self._plans.add(1)
            self._resumed.add(1)
            return
        if len(masm.runs) <= self._trigger():
            return
        eligible = [r for r in masm.runs if not r.quarantined]
        manifest = manifest_of(eligible)
        ranked = score_candidates(
            manifest,
            self._traffic_snapshot(manifest),
            masm.ssd.device.profile,
            masm.oracle.current,
            self.config,
            self.fan_in,
        )
        if not ranked:
            return
        by_name = {r.name: r for r in eligible}
        victims = [by_name[name] for name in ranked[0].names]
        passes = (
            2
            if all(v.passes == 1 for v in victims)
            else max(v.passes for v in victims) + 1
        )
        for victim in victims:
            victim.compacting = True
        self.plan = CompactionPlan(
            victims=victims,
            passes=passes,
            total_count=sum(v.count for v in victims),
        )
        self._plans.add(1)

    # --------------------------------------------------------- slice protocol
    def _emit_slice(self, plan: CompactionPlan) -> bool:
        masm = self.masm
        victims = plan.victims
        # Each slice materializes its own product run, so a plan over n
        # victims must emit at most n-1 slices or compaction would *grow*
        # the run count and never converge on the query budget.  The floor
        # below guarantees a strict net reduction of at least one run per
        # completed plan; the pacer only shrinks slices further when the
        # victim window is wide enough to afford it.
        floor = -(-plan.total_count // max(1, len(victims) - 1))
        target = max(
            self.config.min_slice_records,
            int(self.pacer.fraction * max(plan.total_count, 1)),
            floor,
        )
        updates, leftover = self._take_merged(victims, plan.cursor, target)
        if updates is None:
            # Every remaining key under the cursor was already migrated in
            # place (masked).  Close the mask without a product: the range
            # holds nothing a product would need to own.
            for victim in victims:
                victim.mark_merged(plan.cursor, KEY_MAX)
            plan.done = True
            self._finish_if_complete()
            return False
        lo = plan.cursor
        hi = int(updates.keys[-1]) if leftover else KEY_MAX
        name = masm._next_run_name()
        covered = (
            min(v.covered_min_ts for v in victims),
            max(v.covered_max_ts for v in victims),
        )
        if masm.redo_log is not None:
            masm.redo_log.log_merge_slice(
                masm.oracle.current,
                name,
                [v.name for v in victims],
                (lo, hi),
                covered,
            )
        sim_interleave("compaction.slice_emitted")
        # The slice's commit window: MERGE_SLICE is durable but the product
        # is not — recovery must treat the victims as authoritative.
        crash_point("compaction.slice_emitted")
        product = write_run(
            masm.ssd,
            name,
            updates,
            masm.codec,
            block_size=masm.config.block_size,
            passes=plan.passes,
        )
        product.covered_min_ts, product.covered_max_ts = covered
        sim_interleave("compaction.slice_committed")
        # Commit point passed: the product file is intact, so recovery masks
        # the victims' [lo, hi] and serves the product instead.
        crash_point("compaction.slice_committed")
        masm.stats.updates_written_to_ssd += product.count
        self.pending.append(
            PendingSlice(product=product, lo=lo, hi=hi, victims=list(victims))
        )
        plan.slices += 1
        self._slices.add(1)
        if leftover:
            plan.cursor = hi + 1
        else:
            plan.done = True
        return True

    def _take_merged(self, victims, cursor: int, target: int):
        """``(updates, leftover)``: the first ``target`` updates of the
        victims' merged content from key ``cursor`` on plus the rest of the
        last one's key (a key's version chain split over two products would
        answer the timestamps between from runs whose masks disagree about
        who owns the key), and whether anything is left after them;
        ``updates`` is None when there is nothing from ``cursor`` on.

        Victims are read one read group at a time, a further group only from
        the victim whose last key read keeps the merged prefix from being final.
        """
        sources = [
            source.column_groups()
            for source in self.masm.run_update_sources(
                victims, cursor, KEY_MAX, query_ts=None, use_cache=False
            )
        ]
        last: dict[int, int] = {}  # victim not read to its end -> last key read

        def pull(slot: int) -> list:
            group = next(sources[slot], None)
            if group is None:
                last.pop(slot, None)
                return []
            last[slot] = int(group.keys[-1])
            return [group]

        read = [group for slot in range(len(sources)) for group in pull(slot)]
        while True:
            # Merged from the groups as read each time: a merged result's rows
            # are no longer in buffer order, which the merge wants of its input.
            merged = kernels.merge_sorted(read)
            if merged is None:
                return None, False
            # Keys below every unfinished victim's last are final.
            bound = min(last.values(), default=None)
            if bound is None or target <= key_position(merged.keys, bound, "left"):
                taken = min(target, len(merged))
                cut = key_position(merged.keys, int(merged.keys[taken - 1]), "right")
                return merged.rows(slice(0, cut)), cut < len(merged)
            for slot in [slot for slot, key in last.items() if key == bound]:
                read += pull(slot)

    def apply_pending(self) -> None:
        """Publish committed slices once no in-flight scan can be skewed.

        A scan's run-list snapshot predates the product, but it reads the
        victims' masks lazily — masking mid-scan would hide records the
        snapshot has no product for.  With no scans active, publication is
        atomic under the engine lock: masks plus product appear together.
        """
        masm = self.masm
        with masm._lock:
            if self.pending and not masm._active_scans:
                for pending in self.pending:
                    for victim in pending.victims:
                        victim.mark_merged(pending.lo, pending.hi)
                    masm.runs.append(pending.product)
                    masm.stats.runs_created += 1
                    self._applied.add(1)
                masm.runs_version += 1
                self.pending.clear()
            self._finish_if_complete()

    def _finish_if_complete(self) -> None:
        plan = self.plan
        if plan is None or not plan.done or self.pending:
            return
        masm = self.masm
        live = [v for v in plan.victims if v in masm.runs]
        complete = [v for v in live if v.fully_merged(*FULL_KEY_RANGE)]
        if complete:
            masm.retire_runs(complete, barrier_ts=masm.oracle.current + 1)
            masm.stats.runs_merged += len(complete)
            self._retired.add(len(complete))
        for victim in plan.victims:
            victim.compacting = False
        self.plan = None

    # ------------------------------------------------------------ maintenance
    def ensure_budget(self) -> None:
        """Scan-preamble hook: keep the run count inside the hard ceiling.

        Paced slices normally hold ``len(runs)`` near ``query_pages``; when
        a burst outruns them this emergency structural fallback restores the
        bound, excluding locked plan victims (recovery replays merges in WAL
        order, so a structural merge must never consume a run an open slice
        plan still owns).
        """
        masm = self.masm
        self.apply_pending()
        ceiling = self._trigger() + self.config.emergency_slack
        while len(masm.runs) > ceiling:
            merged = masm._merge_earliest_runs(
                self.fan_in, exclude_compacting=True
            )
            if merged is None:
                break
            self._emergency.add(1)

    def abandon_plan(self) -> bool:
        """Release plan victims (a full migration wants the whole cache).

        Returns True when no victims remain locked.  Partially merged
        victims keep their masks; the next plan resumes exactly where this
        one stopped.  Unpublishable pending slices (in-flight scans) keep
        their victims locked and return False.
        """
        with self.masm._lock:
            self.apply_pending()
            if self.pending:
                return False
            if self.plan is not None:
                for victim in self.plan.victims:
                    victim.compacting = False
                self.plan = None
                self._abandoned.add(1)
            return True

    def replace_run(
        self, old: MaterializedSortedRun, new: MaterializedSortedRun
    ) -> None:
        """Track an in-place run repair (identity swap) in plan state."""
        if self.plan is not None:
            self.plan.victims = [
                new if v is old else v for v in self.plan.victims
            ]
        for pending in self.pending:
            pending.victims = [new if v is old else v for v in pending.victims]
            if pending.product is old:  # pragma: no cover - products are fresh
                pending.product = new

    # ------------------------------------------------------------ measurement
    def _measure_start(self) -> tuple[float, float]:
        disk = self.masm.table.heap.file.device
        ssd = self.masm.ssd.device
        return disk.stats.busy_time, ssd.stats.busy_time

    def _measure_elapsed(self, before: tuple[float, float]) -> float:
        disk = self.masm.table.heap.file.device
        ssd = self.masm.ssd.device
        return max(
            disk.stats.busy_time - before[0], ssd.stats.busy_time - before[1]
        )

    # -------------------------------------------------------------- reporting
    def report(self) -> dict:
        """JSON-ready snapshot of the scheduler's counters and state."""
        return {
            "scope": self.scope,
            "plan_victims": (
                [v.name for v in self.plan.victims] if self.plan else []
            ),
            "plan_cursor": self.plan.cursor if self.plan else None,
            "pending_slices": len(self.pending),
            "plans_started": self._plans.value,
            "plans_resumed": self._resumed.value,
            "plans_abandoned": self._abandoned.value,
            "slices_emitted": self._slices.value,
            "slices_applied": self._applied.value,
            "victims_retired": self._retired.value,
            "emergency_merges": self._emergency.value,
            "slices_aborted": self._aborted.value,
            "slice_fraction": self.pacer.fraction,
        }
