"""Property-based simulation: random actor mixes x seeds vs the model.

Hypothesis drives :func:`repro.sim.run_simulation` across randomized actor
populations and seeds; the in-run oracle checks (scanner prefix equality,
post-crash in-doubt settlement, final full-state equality) are the
properties.  When a run diverges, the failure is delta-debugged to a
minimal schedule and re-replayed before being reported, so what lands in
the CI log is a pinned reproducer, not a 100-step trace.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim.__main__ import SCENARIOS
from repro.sim.harness import SimConfig, run_simulation
from repro.sim.scheduler import Schedule, SimFailure
from repro.sim.shrink import shrink_schedule

pytestmark = pytest.mark.sim

actor_mixes = st.fixed_dictionaries(
    {
        "updaters": st.integers(1, 2),
        "scanners": st.integers(1, 2),
        "flushers": st.integers(1, 2),
        "migrators": st.integers(0, 1),
        "crashers": st.integers(0, 1),
        "txn_writers": st.integers(0, 1),
        "update_ops": st.integers(5, 30),
        "scans": st.integers(1, 3),
        "scan_batch": st.sampled_from([4, 16, 64]),
        "flush_ops": st.integers(1, 4),
        "migrate_ops": st.integers(0, 4),
        "crasher_idle": st.integers(0, 12),
    }
)


def _shrunk_reproducer(config: SimConfig, seed: int, failure: SimFailure) -> str:
    def fails(candidate: Schedule) -> bool:
        try:
            run_simulation(config, seed=seed, schedule=candidate)
        except SimFailure:
            return True
        return False

    minimal = shrink_schedule(failure.schedule, fails, max_probes=150)
    replays = fails(minimal)
    return (
        f"shrunk to {len(minimal.choices)} choices "
        f"(replays={replays}): {minimal.to_text()}"
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mix=actor_mixes, seed=st.integers(0, 2**16))
def test_random_actor_mix_matches_model(mix, seed):
    config = replace(SimConfig.canonical(), **mix)
    try:
        run = run_simulation(config, seed=seed)
    except SimFailure as failure:
        raise AssertionError(
            f"simulation diverged from model (seed={seed}, mix={mix});\n"
            + _shrunk_reproducer(config, seed, failure)
            + f"\n{failure}"
        ) from failure
    assert run.report.verdict in ("ok", "crashed")


@settings(max_examples=8, deadline=None)
@given(mix=actor_mixes, seed=st.integers(0, 2**16))
def test_schedule_is_pure_function_of_seed_and_config(mix, seed):
    config = replace(SimConfig.canonical(), **mix)
    first = run_simulation(config, seed=seed).report.to_text()
    second = run_simulation(config, seed=seed).report.to_text()
    assert first == second


#: A snapshot transaction reads a key, a plain updater deletes it, the
#: transaction then commits a MODIFY of it: first-committer-wins has to see
#: the plain delete (seeds 373 and 390 of this mix draw exactly that).  The
#: mix is the CLI's ``txn-vs-plain`` scenario, which CI sweeps over 5K seeds.
SI_VS_PLAIN_DELETE_MIX = {
    name: getattr(SCENARIOS["txn-vs-plain"](), name)
    for name in (
        "updaters", "scanners", "flushers", "migrators", "crashers", "txn_writers",
        "update_ops", "scans", "scan_batch", "flush_ops", "migrate_ops", "crasher_idle",
    )
}


@settings(max_examples=8, deadline=None)
@given(mix=actor_mixes, seed=st.integers(0, 2**16))
@example(mix=SI_VS_PLAIN_DELETE_MIX, seed=373)
@example(mix=SI_VS_PLAIN_DELETE_MIX, seed=390)
def test_recorded_schedule_replays(mix, seed):
    config = replace(SimConfig.canonical(), **mix)
    seeded = run_simulation(config, seed=seed)
    replayed = run_simulation(
        config, seed=seed, schedule=seeded.report.schedule
    )
    assert replayed.report.to_text() == seeded.report.to_text()


def test_final_validation_failure_carries_a_replayable_schedule(monkeypatch):
    """``validate_full`` runs after the last scheduler step; what it raises
    must still come out as a SimFailure with the schedule that led there."""
    from repro.sim.harness import SimEnv

    def diverged(self):
        raise AssertionError("final engine state diverged from model: test")

    monkeypatch.setattr(SimEnv, "validate_full", diverged)
    with pytest.raises(SimFailure) as caught:
        run_simulation(SimConfig.canonical(), seed=3)
    failure = caught.value
    assert failure.actor == "<validate_full>"
    assert failure.schedule.choices
    assert "--replay" in str(failure) and "diverged from model" in str(failure)
