"""Interleave-point hooks for deterministic simulation testing.

Library code marks the moments where concurrent interleavings matter by
calling :func:`interleave` with a stable site name::

    from repro.sim.hooks import interleave as sim_interleave
    ...
    sim_interleave("masm.apply")

Outside a simulation the call is a cheap no-op (one module-global read and
a ``None`` check — gated at <=5% of the ungoverned hot path by
``benchmarks/gates.py sim_overhead``).  Inside a simulation the active
:class:`repro.sim.scheduler.SimScheduler` records every site reached during
the current actor step, which is what makes a printed schedule trace an
exact, replayable account of the run.

Site naming convention (see DESIGN.md "Deterministic simulation"):
``<module>.<operation>[.<phase>]`` — e.g. ``masm.apply``,
``masm.scan.begin``, ``migration.slice``, ``governor.migrate_step``,
``txn.commit``.  Names are append-only: renaming a site invalidates saved
schedule traces.

This module must stay dependency-free: it is imported by ``repro.core``
modules, so importing anything from ``repro.core``/``repro.txn`` here would
create a cycle.
"""

from __future__ import annotations

from typing import Optional, Protocol


class InterleaveObserver(Protocol):
    """What an active simulation context must provide."""

    def on_interleave(self, site: str) -> None: ...


#: The active simulation context, or None outside a simulation.  A plain
#: module global (not a ContextVar): simulations are single-threaded by
#: design, and the ungoverned hot path cannot afford ContextVar lookups.
_ACTIVE: Optional[InterleaveObserver] = None


def interleave(site: str) -> None:
    """Mark an instrumented interleave point (no-op unless simulating)."""
    ctx = _ACTIVE
    if ctx is not None:
        ctx.on_interleave(site)


def activate(ctx: InterleaveObserver) -> None:
    """Install ``ctx`` as the active simulation context."""
    global _ACTIVE
    _ACTIVE = ctx


def deactivate(ctx: InterleaveObserver) -> None:
    """Remove ``ctx`` if it is the active context (idempotent)."""
    global _ACTIVE
    if _ACTIVE is ctx:
        _ACTIVE = None


def active_context() -> Optional[InterleaveObserver]:
    return _ACTIVE


class simulation_active:
    """Context manager installing an interleave observer for a block."""

    def __init__(self, ctx: InterleaveObserver) -> None:
        self.ctx = ctx

    def __enter__(self) -> InterleaveObserver:
        activate(self.ctx)
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        deactivate(self.ctx)
