"""Seeded cooperative scheduler stepping actor coroutines deterministically.

Actors are generator functions: each ``yield`` marks an operation boundary
where the scheduler may switch to a different actor.  The scheduler picks
the next actor with ``rng.choice(sorted(runnable))`` — a pure function of
the seed — and records every choice, so the resulting :class:`Schedule` is
a complete, replayable account of the run.  While an actor executes a step,
the scheduler is installed as the active interleave observer
(:mod:`repro.sim.hooks`), so every ``sim.interleave(site)`` the engine
reaches during that step is attached to the step's trace line.

Replay mode (``schedule=`` given) consumes an explicit choice list instead
of the RNG.  Choices naming actors that have already finished (or never
existed — e.g. after shrinking) are skipped, which is what makes
delta-debugged schedules directly executable.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.storage.faults import SimulatedCrash

Actor = Generator[None, None, None]


@dataclass(frozen=True)
class Step:
    """One scheduler decision and everything that happened during it."""

    index: int
    actor: str
    op: str  # "step" | "end" | "crash" | "fail"
    sites: tuple = ()

    def to_text(self) -> str:
        line = f"{self.index:4d} {self.actor:<12} {self.op}"
        if self.sites:
            line += "  [" + " ".join(self.sites) + "]"
        return line


@dataclass
class Schedule:
    """An ordered list of actor-name choices — the replayable schedule."""

    choices: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        return ",".join(self.choices)

    @classmethod
    def from_text(cls, text: str) -> "Schedule":
        text = text.strip()
        return cls([c for c in text.split(",") if c] if text else [])


class SimFailure(AssertionError):
    """An actor raised (or an oracle check failed) during simulation.

    Carries the schedule trace and replay instructions so the failure is
    reproducible from the message alone.
    """

    def __init__(
        self,
        message: str,
        *,
        seed: int,
        schedule: Schedule,
        steps: List[Step],
        actor: str,
        cause: Optional[BaseException] = None,
    ) -> None:
        self.seed = seed
        self.schedule = schedule
        self.steps = steps
        self.actor = actor
        self.cause_text = (
            "".join(traceback.format_exception(cause)) if cause else ""
        )
        trace = "\n".join(s.to_text() for s in steps[-40:])
        detail = (
            f"{message}\n"
            f"-- actor: {actor}\n"
            f"-- seed: {seed}\n"
            f"-- schedule ({len(schedule.choices)} choices, replayable): "
            f"{schedule.to_text()}\n"
            f"-- last steps:\n{trace}\n"
            f"-- replay: python -m repro.sim --seed {seed} "
            f"--replay '{schedule.to_text()}'"
        )
        if self.cause_text:
            detail += f"\n-- actor traceback:\n{self.cause_text}"
        super().__init__(detail)


class SimScheduler:
    """Steps a fixed set of named actors under a seed or explicit schedule."""

    def __init__(
        self,
        actors: Dict[str, Actor],
        *,
        seed: int = 0,
        schedule: Optional[Schedule] = None,
        monitor: Optional[Callable[[], None]] = None,
    ) -> None:
        self.actors = dict(actors)
        #: Invariant check run after every step; an AssertionError it
        #: raises fails the run like an actor's would.
        self.monitor = monitor
        self.seed = seed
        self.rng = random.Random(f"sched:{seed}")
        self.replay = schedule
        self._replay_pos = 0
        self.runnable: List[str] = sorted(self.actors)
        self.steps: List[Step] = []
        self.recorded = Schedule()
        self.crashed = False
        #: Sites reached during the step currently executing.
        self._sites: List[str] = []

    # ------------------------------------------------------ hook observer
    def on_interleave(self, site: str) -> None:
        self._sites.append(site)

    # ------------------------------------------------------------- choice
    def _next_choice(self) -> Optional[str]:
        if self.replay is not None:
            while self._replay_pos < len(self.replay.choices):
                name = self.replay.choices[self._replay_pos]
                self._replay_pos += 1
                if name in self.runnable:
                    return name
                # Skip finished/unknown actors: shrunk schedules stay valid.
            return None
        if not self.runnable:
            return None
        return self.rng.choice(self.runnable)

    # --------------------------------------------------------------- step
    def step(self) -> Optional[Step]:
        """Advance one actor by one operation; None when nothing runnable."""
        name = self._next_choice()
        if name is None:
            return None
        self.recorded.choices.append(name)
        actor = self.actors[name]
        self._sites = []
        from repro.sim import hooks

        hooks.activate(self)
        try:
            next(actor)
            op = "step"
        except StopIteration:
            op = "end"
            self.runnable.remove(name)
        except SimulatedCrash:
            op = "crash"
            self.crashed = True
        except BaseException as exc:  # noqa: BLE001 - rewrapped with trace
            step = Step(len(self.steps), name, "fail", tuple(self._sites))
            self.steps.append(step)
            raise SimFailure(
                f"actor {name!r} raised {type(exc).__name__}: {exc}",
                seed=self.seed,
                schedule=self.recorded,
                steps=self.steps,
                actor=name,
                cause=exc,
            ) from exc
        finally:
            hooks.deactivate(self)
        step = Step(len(self.steps), name, op, tuple(self._sites))
        self.steps.append(step)
        if self.monitor is not None:
            try:
                self.monitor()
            except AssertionError as exc:
                raise SimFailure(
                    f"invariant broken after step {step.index}: {exc}",
                    seed=self.seed,
                    schedule=self.recorded,
                    steps=self.steps,
                    actor=name,
                    cause=exc,
                ) from exc
        if op == "crash":
            # A simulated crash tears down the whole process: every actor
            # is dead, not just the one that tripped the crash point.
            self.runnable = []
        return step

    def run(self, max_steps: int = 100_000) -> List[Step]:
        """Run until every actor finishes (or a crash / step budget)."""
        while len(self.steps) < max_steps:
            if self.step() is None:
                break
        else:
            raise SimFailure(
                f"simulation did not quiesce within {max_steps} steps",
                seed=self.seed,
                schedule=self.recorded,
                steps=self.steps,
                actor="<scheduler>",
            )
        return self.steps
