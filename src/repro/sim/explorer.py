"""Crash-schedule explorer: every crash point x every schedule prefix.

The existing fault tests crash once at a hand-picked moment.  The explorer
makes that systematic: first a clean reference run records its schedule
and the last step at which each named crash point is reached, then for
every prefix ``p`` of that schedule and every crash point some step from
``p`` on still reaches, it replays the same schedule, arms
``FaultPlan().crash_at(site, 1)`` after ``p`` steps and lets the run crash
wherever the site is next reached (a probe that cannot fire is counted as
skipped, not run).  The torn state is recovered with the real recovery
path and validated against the model oracle (with the in-doubt disjunction
for the one update that may have been mid-apply) — so "migration/recovery
never lose or double-apply an update" is checked at every point of the
schedule, not one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import use_registry, use_tracer
from repro.sim import hooks
from repro.sim.harness import SimConfig, SimEnv, build_actor_factories, run_simulation
from repro.sim.scheduler import Schedule, SimScheduler
from repro.storage.faults import FaultPlan, use_fault_plan

#: The durability windows the storage stack instruments.  The two merge
#: sites bracket the RUN_MERGE commit point (record logged / product
#: written, victims not yet retired); ``--scenario merge`` runs enough
#: merges for both to fire on every schedule it sweeps.
DEFAULT_CRASH_SITES = (
    "masm.flush.run_written",
    "migration.emit",
    "wal.append",
    "wal.truncate",
    "masm.merge.logged",
    "masm.merge.product_written",
)


@dataclass
class Probe:
    """One (prefix, site) crash experiment."""

    prefix: int
    site: str
    fired: bool  # did the armed crash point actually trip?
    validated: bool
    steps: int  # schedule steps executed before the run ended
    error: str = ""


@dataclass
class ExplorationReport:
    seed: int
    schedule: Schedule
    sites: Sequence[str]
    probes: List[Probe] = field(default_factory=list)
    #: site -> prefixes not probed: no step from there on reaches the site.
    skipped: Dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.probes)

    def fired(self, site: Optional[str] = None) -> int:
        return sum(
            1 for p in self.probes if p.fired and site in (None, p.site)
        )

    def validated(self, site: Optional[str] = None) -> int:
        return sum(
            1 for p in self.probes if p.validated and site in (None, p.site)
        )

    @property
    def failures(self) -> List[Probe]:
        return [p for p in self.probes if not p.validated]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "schedule": self.schedule.to_text(),
            "sites": list(self.sites),
            "attempted": self.attempted,
            "per_site": {
                site: {
                    "fired": self.fired(site),
                    "validated": self.validated(site),
                    "skipped": self.skipped.get(site, 0),
                }
                for site in self.sites
            },
            "failures": [
                {
                    "prefix": p.prefix,
                    "site": p.site,
                    "steps": p.steps,
                    "error": p.error,
                }
                for p in self.failures
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        parts = [
            f"explored {self.attempted} crash probes over "
            f"{len(self.schedule.choices)} schedule prefixes"
        ]
        for site in self.sites:
            parts.append(
                f"  {site}: fired {self.fired(site)}, "
                f"validated {self.validated(site)}, "
                f"skipped {self.skipped.get(site, 0)}"
            )
        if self.failures:
            parts.append(f"  FAILURES: {len(self.failures)}")
        return "\n".join(parts)


def run_crash_probe(
    config: SimConfig,
    seed: int,
    schedule: Schedule,
    prefix: int,
    site: str,
    max_steps: int = 100_000,
) -> Probe:
    """Replay ``schedule``, arm a crash at ``site`` after ``prefix`` steps."""
    with use_registry(), use_tracer():
        env = SimEnv(config, seed)
        factories = build_actor_factories(env, config, seed)
        sched = SimScheduler(
            {name: factories[name]() for name in sorted(factories)},
            seed=seed,
            schedule=schedule,
            monitor=env.check_invariants,
        )
        for _ in range(prefix):
            if sched.step() is None:
                break
        plan = FaultPlan().crash_at(site, occurrence=1)
        with use_fault_plan(plan):
            while len(sched.steps) < max_steps:
                if sched.step() is None:
                    break
        fired = sched.crashed
        try:
            if fired:
                env.crash_and_recover()
            else:
                env.validate_full()
        except AssertionError as exc:
            return Probe(
                prefix=prefix,
                site=site,
                fired=fired,
                validated=False,
                steps=len(sched.steps),
                error=str(exc),
            )
        return Probe(
            prefix=prefix,
            site=site,
            fired=fired,
            validated=True,
            steps=len(sched.steps),
        )


def explore_crash_schedules(
    config: Optional[SimConfig] = None,
    seed: int = 0,
    sites: Sequence[str] = DEFAULT_CRASH_SITES,
    prefix_stride: int = 1,
) -> ExplorationReport:
    """Sweep every crash site across every schedule prefix of a clean run.

    A probe armed after ``p`` steps fires at the first step from ``p`` on
    that reaches its site; the replay is the reference run until then, so a
    prefix past the last step that reaches the site cannot fire and is
    skipped.  ``prefix_stride`` > 1 samples every Nth prefix (for quick
    smoke runs); the CI explorer job and the acceptance criterion use
    stride 1.
    """
    config = config or SimConfig.canonical()
    reach = _LastReach()
    with use_fault_plan(reach):
        reference = run_simulation(config, seed)
    schedule = Schedule(list(reference.report.schedule.choices))
    report = ExplorationReport(seed=seed, schedule=schedule, sites=sites)
    for prefix in range(0, len(schedule.choices) + 1, prefix_stride):
        for site in sites:
            if reach.last.get(site, -1) < prefix:
                report.skipped[site] = report.skipped.get(site, 0) + 1
                continue
            report.probes.append(
                run_crash_probe(config, seed, schedule, prefix, site)
            )
    return report


class _LastReach:
    """A crash-point observer (it never crashes) for the reference run:
    the index of the last schedule step in which each site was reached."""

    def __init__(self) -> None:
        self.last: Dict[str, int] = {}

    def check_crash_point(self, site: str) -> None:
        scheduler = hooks.active_context()
        if isinstance(scheduler, SimScheduler):
            self.last[site] = len(scheduler.steps)
