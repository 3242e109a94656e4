"""Validation and algebra tests for the declarative FaultPlan."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.env import SimEnv
from repro.sim.faults import FaultPlan
from repro.sim.process import SimProcess
from repro.sim.wire import LinkProfile


# ----------------------------------------------------------------------
# Crash validation (the historical gaps: NaN/negative times and
# duplicate crashes used to be silently accepted and double-scheduled).
# ----------------------------------------------------------------------


def test_crash_rejects_negative_time():
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("s0", at=-0.1)


def test_crash_rejects_nan_time():
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("s0", at=math.nan)


def test_crash_rejects_non_number_time():
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("s0", at="soon")


def test_crash_rejects_boolean_time():
    # bool subclasses int: plan.crash("s0", True) would otherwise be
    # silently accepted as a crash at t=1.0.
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("s0", at=True)
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("s0", at=False)
    with pytest.raises(ConfigurationError):
        FaultPlan().restart("s0", at=True)
    with pytest.raises(ConfigurationError):
        FaultPlan().pause("s0", at=True, resume_at=2.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().drop("a", "b", p=0.5, at=0.1, until=True)


def test_duplicate_crash_of_same_process_rejected():
    plan = FaultPlan().crash("s0", at=0.1)
    with pytest.raises(ConfigurationError):
        plan.crash("s0", at=0.2)


def test_sequential_rejects_duplicate_names():
    with pytest.raises(ConfigurationError):
        FaultPlan.sequential(["s0", "s1", "s0"], first_at=0.1, spacing=0.1)


# ----------------------------------------------------------------------
# Crash/restart interval validation: per process the lifecycle events
# must strictly alternate in time, starting with a crash.
# ----------------------------------------------------------------------


def test_restart_of_live_process_rejected():
    with pytest.raises(ConfigurationError, match="not down"):
        FaultPlan().restart("s0", at=0.5)
    # A restart *before* the only crash is equally impossible.
    plan = FaultPlan().crash("s0", at=0.5)
    with pytest.raises(ConfigurationError, match="not down"):
        plan.restart("s0", at=0.2)


def test_crash_while_down_rejected_but_crash_after_restart_allowed():
    plan = FaultPlan().crash("s0", at=0.1).restart("s0", at=0.4)
    plan.crash("s0", at=0.7)  # up again at 0.7: fine
    with pytest.raises(ConfigurationError, match="already down"):
        plan.crash("s0", at=0.9)  # down since 0.7, no restart between
    plan.restart("s0", at=0.9)
    assert len(plan.crashes) == 2
    assert len(plan.restarts) == 2


def test_double_restart_rejected():
    plan = FaultPlan().crash("s0", at=0.1).restart("s0", at=0.4)
    with pytest.raises(ConfigurationError, match="not down"):
        plan.restart("s0", at=0.6)


def test_simultaneous_lifecycle_events_rejected():
    plan = FaultPlan().crash("s0", at=0.1)
    with pytest.raises(ConfigurationError, match="same time"):
        plan.restart("s0", at=0.1)


def test_lifecycle_validation_is_call_order_independent():
    # Builders may append events out of chronological order; validity is
    # a property of the times.
    plan = FaultPlan()
    plan.crash("s0", at=0.1)
    plan.crash("s1", at=0.2)  # other processes are independent timelines
    plan.restart("s0", at=0.8)
    with pytest.raises(ConfigurationError):
        plan.crash("s0", at=0.5)  # would land inside s0's down interval


def test_restart_applies_and_rearms_the_process():
    env = SimEnv()
    process = SimProcess(env, "s0")
    FaultPlan().crash("s0", at=0.2).restart("s0", at=0.6).apply(
        env, {"s0": process}
    )
    env.run(until=0.4)
    assert not process.alive
    env.run_until_idle()
    assert process.alive
    assert process.restarts == 1
    assert env.trace.counters["process.crashes"] == 1
    assert env.trace.counters["process.restarts"] == 1


def test_restart_listeners_fire_per_cycle():
    env = SimEnv()
    process = SimProcess(env, "s0")
    seen = []
    process.on_restart(lambda p: seen.append(p.restarts))
    process.restart()  # idempotent on a live process
    assert seen == []
    process.crash()
    process.restart()
    process.crash()
    process.restart()
    assert seen == [1, 2]
    assert env.trace.counters["process.restarts"] == 2


def test_crash_applies_once_per_process():
    env = SimEnv()
    process = SimProcess(env, "s0")
    FaultPlan().crash("s0", at=0.5).apply(env, {"s0": process})
    env.run_until_idle()
    assert not process.alive
    assert env.trace.counters["process.crashes"] == 1


def test_apply_unknown_process_raises():
    env = SimEnv()
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("ghost", at=0.1).apply(env, {})


# ----------------------------------------------------------------------
# Window and parameter validation for the extended algebra.
# ----------------------------------------------------------------------


def test_partition_window_must_be_ordered():
    with pytest.raises(ConfigurationError):
        FaultPlan().partition([["s0"], ["s1"]], at=0.5, heal_at=0.5)


def test_partition_needs_two_nonempty_groups():
    with pytest.raises(ConfigurationError):
        FaultPlan().partition([["s0", "s1"]], at=0.1, heal_at=0.2)
    with pytest.raises(ConfigurationError):
        FaultPlan().partition([["s0"], []], at=0.1, heal_at=0.2)


def test_partition_rejects_process_in_two_groups():
    with pytest.raises(ConfigurationError):
        FaultPlan().partition([["s0", "s1"], ["s1"]], at=0.1, heal_at=0.2)


def test_partition_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        FaultPlan().partition([["s0"], ["s1"]], at=0.1, heal_at=0.2, mode="eat")


def test_drop_rejects_bad_probability():
    with pytest.raises(ConfigurationError):
        FaultPlan().drop("a", "b", p=1.5, at=0.1, until=0.2)


def test_delay_rejects_negative_extra():
    with pytest.raises(ConfigurationError):
        FaultPlan().delay("a", "b", at=0.1, until=0.2, extra=-0.001)


def test_throttle_rejects_nonpositive_factor():
    with pytest.raises(ConfigurationError):
        FaultPlan().throttle("s0", factor=0.0, at=0.1, until=0.2)
    with pytest.raises(ConfigurationError):
        FaultPlan().throttle("s0", factor=math.nan, at=0.1, until=0.2)


def test_throttle_rejects_infinite_factor():
    """factor=inf used to validate and then blow up mid-run inside the
    scheduler (bandwidth rated/inf == 0); it must fail at construction."""
    with pytest.raises(ConfigurationError):
        FaultPlan().throttle("s0", factor=math.inf, at=0.1, until=0.2)


def test_times_must_be_finite():
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("s0", at=math.inf)
    with pytest.raises(ConfigurationError):
        FaultPlan().pause("s0", at=0.1, resume_at=math.inf)


def test_pause_window_must_be_ordered():
    with pytest.raises(ConfigurationError):
        FaultPlan().pause("s0", at=0.3, resume_at=0.1)


def test_link_profile_validates():
    with pytest.raises(ValueError):
        LinkProfile(dup_p=-0.1).validate()
    with pytest.raises(ValueError):
        LinkProfile(jitter=math.nan).validate()


# ----------------------------------------------------------------------
# Algebra introspection and application plumbing.
# ----------------------------------------------------------------------


def test_fault_kinds_and_horizon():
    plan = (
        FaultPlan()
        .crash("s0", at=1.4)
        .partition([["s0"], ["s1"]], at=0.1, heal_at=0.6)
        .drop("c0", "s1", p=0.2, at=0.0, until=0.3)
        .duplicate("s1", "s2", p=0.5, at=0.2, until=0.4)
        .delay("c0", "s0", at=0.1, until=0.9, extra=0.001)
        .throttle("s2", factor=4.0, at=0.0, until=0.5)
        .pause("s1", at=0.3, resume_at=0.45)
    )
    assert plan.fault_kinds() == {
        "crash", "partition", "drop", "duplicate", "delay", "throttle", "pause"
    }
    # The stall horizon is the last closing fault window (crashes are
    # not windows: a crash is permanent, not a stall).
    assert plan.stall_horizon() == pytest.approx(0.9)
    assert plan.events == 7


def test_restart_extends_horizon_and_fault_kinds():
    plan = FaultPlan().crash("s0", at=0.2).restart("s0", at=1.7)
    assert plan.fault_kinds() == {"crash", "restart"}
    # A crash..restart pair *is* a fault window: the process is down
    # until the restart (a permanent crash still is not).
    assert plan.stall_horizon() == pytest.approx(1.7)
    assert plan.events == 2


def test_overlapping_pause_windows_rejected():
    plan = FaultPlan().pause("s0", at=0.1, resume_at=0.5)
    with pytest.raises(ConfigurationError):
        plan.pause("s0", at=0.2, resume_at=0.3)
    # Disjoint windows and other processes are fine.
    plan.pause("s0", at=0.6, resume_at=0.7)
    plan.pause("s1", at=0.2, resume_at=0.3)


def test_overlapping_throttle_windows_rejected():
    plan = FaultPlan().throttle("s0", factor=4.0, at=0.1, until=0.5)
    with pytest.raises(ConfigurationError):
        plan.throttle("s0", factor=2.0, at=0.2, until=0.3)
    plan.throttle("s0", factor=2.0, at=0.5, until=0.6)


def test_overlapping_partitions_sharing_a_link_rejected():
    plan = FaultPlan().partition([["s0"], ["s1", "s2"]], at=0.1, heal_at=0.4)
    with pytest.raises(ConfigurationError):
        plan.partition([["s0"], ["s1"]], at=0.2, heal_at=0.5)
    # Overlapping in time but cutting disjoint links is composable.
    plan.partition([["s1"], ["s2"]], at=0.2, heal_at=0.5)


def test_apply_validates_every_named_process():
    env = SimEnv()
    s0 = SimProcess(env, "s0")

    class _FakeNemesis:
        pass

    for plan in (
        FaultPlan().partition([["s0"], ["sTYPO"]], at=0.1, heal_at=0.2),
        FaultPlan().drop("s0", "ghost", p=1.0, at=0.1, until=0.2),
        FaultPlan().throttle("sTYPO", factor=2.0, at=0.1, until=0.2),
        FaultPlan().pause("sTYPO", at=0.1, resume_at=0.2),
    ):
        with pytest.raises(ConfigurationError, match="unknown process"):
            plan.apply(env, {"s0": s0}, nemesis=_FakeNemesis())


def test_link_faults_require_a_nemesis():
    env = SimEnv()
    plan = FaultPlan().drop("a", "b", p=0.5, at=0.1, until=0.2)
    with pytest.raises(ConfigurationError):
        plan.apply(env, {})


def test_crash_only_plan_applies_without_nemesis():
    env = SimEnv()
    process = SimProcess(env, "s0")
    FaultPlan().crash("s0", at=0.1).apply(env, {"s0": process}, nemesis=None)
    env.run_until_idle()
    assert not process.alive
