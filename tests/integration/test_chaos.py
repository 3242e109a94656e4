"""Integration tests for the randomized chaos harness.

These pin the acceptance behaviour: randomized fault schedules against
the core protocol pass the linearizability gate, the whole baseline zoo
survives its gentle profile, fault coverage is demonstrable through
trace counters, and profile/protocol mismatches are rejected.
"""

import pytest

from repro.chaos import (
    CORE_PROFILE,
    GENTLE_PROFILE,
    TARGETS,
    generate_schedule,
    run_schedule,
)
from repro.chaos.schedule import AGGRESSIVE_CLIENT_TIMEOUT, PROFILES
from repro.chaos.__main__ import main as chaos_main
from repro.errors import ConfigurationError


def test_core_survives_a_batch_of_randomized_schedules():
    exercised = set()
    for index in range(8):
        schedule = generate_schedule(seed=0, index=index)
        result = run_schedule(schedule, "core")
        assert result.linearizable, (
            f"schedule {schedule.describe()}: {result.reason}"
        )
        assert result.ops_completed > 0
        exercised |= result.exercised
    assert {"crash", "partition"} <= exercised, exercised


def test_schedules_are_deterministic_data():
    a = generate_schedule(seed=3, index=5)
    b = generate_schedule(seed=3, index=5)
    assert a == b and a.plan.events == b.plan.events
    c = generate_schedule(seed=3, index=6)
    assert (a.plan.events, a.writers, a.readers, a.ops_per_client) != (
        c.plan.events, c.writers, c.readers, c.ops_per_client
    ) or a.cluster_seed != c.cluster_seed


@pytest.mark.parametrize("protocol", ["abd", "chain", "tob"])
def test_atomic_baselines_survive_gentle_chaos(protocol):
    profile = TARGETS[protocol].profile
    for index in range(3):
        schedule = generate_schedule(seed=1, index=index, profile=profile)
        result = run_schedule(schedule, protocol)
        assert result.linearizable, (
            f"{protocol} schedule {schedule.describe()}: {result.reason}"
        )


def test_naive_baseline_never_fails_the_gate_but_may_violate():
    for index in range(4):
        schedule = generate_schedule(seed=2, index=index, profile=GENTLE_PROFILE)
        result = run_schedule(schedule, "naive")
        assert result.ok, "naive violations are expected anomalies, not failures"


def test_baselines_reject_core_profile_schedules():
    schedule = generate_schedule(seed=0, index=0, profile=CORE_PROFILE)
    with pytest.raises(ConfigurationError):
        run_schedule(schedule, "abd")


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigurationError):
        run_schedule(generate_schedule(seed=0, index=0), "raft")


def test_client_timeout_races_the_stall_horizon():
    """Lifted envelope: the client timeout is aggressive — *below* the
    stall horizon whenever a fault window is scheduled — so retries race
    stalled operations and the dedup machinery is what keeps runs safe.
    (The old generator pinned the timeout past the horizon.)"""
    raced = 0
    for index in range(10):
        schedule = generate_schedule(seed=4, index=index)
        assert schedule.config.client_timeout == AGGRESSIVE_CLIENT_TIMEOUT
        assert schedule.deadline > schedule.workload_span
        raced += schedule.plan.stall_horizon() > schedule.config.client_timeout
    assert raced > 0, "no schedule put the timeout inside a fault window"


def test_ring_loss_now_schedulable_with_crashes():
    """Lifted envelope: the generator may combine probabilistic ring
    loss with crashes (previously forbidden: a lost pre-write left a
    zombie pending entry the crash merge would resurrect), and ring loss
    may hit any ring link, not just successor links."""
    combined = 0
    non_successor = 0
    for index in range(200):
        schedule = generate_schedule(seed=7, index=index)
        plan = schedule.plan
        ring_drops = [
            fault for fault in plan.link_faults
            if fault.profile.drop_p and fault.src.startswith("s")
            and fault.dst.startswith("s")
        ]
        if ring_drops and plan.crashes:
            combined += 1
        for fault in ring_drops:
            succ = (int(fault.src[1:]) + 1) % schedule.num_servers
            if fault.dst != f"s{succ}":
                non_successor += 1
    assert combined > 0, "ring loss never drawn alongside a crash"
    assert non_successor > 0, "ring loss only ever drawn on successor links"


def test_ring_loss_combined_with_crash_stays_linearizable():
    """The previously-unschedulable combination, as one fixed plan: lose
    ring frames on a non-successor link *and* crash a server while the
    workload runs.  The reliable session layer must retransmit through
    the loss (provable via the trace), and the run must stay
    linearizable and make progress."""
    import dataclasses

    from repro.sim.faults import FaultPlan

    base = generate_schedule(seed=11, index=0)
    plan = (
        FaultPlan()
        .drop("s0", "s1", p=0.35, at=0.02, until=0.9)
        .drop("s2", "s0", p=0.25, at=0.05, until=0.8)  # non-successor link
        .crash("s3", at=0.4)
    )
    schedule = dataclasses.replace(
        base, plan=plan, workload_span=1.0, deadline=6.0,
        writers=3, readers=3, ops_per_client=6,
    )
    result = run_schedule(schedule, "core")
    assert result.linearizable, result.reason
    assert result.progressed, (
        f"only {result.ops_completed}/{result.ops_required} required ops"
    )
    assert result.counters["reliable.retransmits"] > 0, (
        "the session layer never retransmitted; the loss windows cannot "
        "have been exercised"
    )
    assert "crash" in result.exercised and "drop" in result.exercised


def test_batch_proves_session_layer_fired():
    """Acceptance: across a seed-0 batch, trace counters must show the
    session layer actually retransmitting and suppressing duplicates."""
    retransmits = 0
    dups = 0
    for index in range(8):
        result = run_schedule(generate_schedule(seed=0, index=index), "core")
        assert result.ok, result.describe()
        retransmits += result.counters["reliable.retransmits"]
        dups += result.counters["reliable.dups_suppressed"]
    assert retransmits > 0
    assert dups > 0


def test_stalled_runs_fail_the_gate():
    """A vacuously-linearizable empty history must not pass: the gate
    requires the workload to have made progress."""
    schedule = generate_schedule(seed=0, index=0)
    result = run_schedule(schedule, "core")
    assert result.ops_required > 0
    assert result.progressed and result.ok
    import dataclasses

    stalled = dataclasses.replace(result, ops_completed=0)
    assert stalled.linearizable and not stalled.ok, (
        "zero completed ops is a liveness failure even though the empty "
        "history is trivially linearizable"
    )
    assert "STALLED" in stalled.describe()


def test_cli_small_batch_exits_zero(capsys):
    assert chaos_main(["--runs", "3", "--seed", "0", "-q"]) == 0
    out = capsys.readouterr().out
    assert "3/3 schedules passed" in out


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["--servers", "1"], "--servers must be >= 2, got 1"),
        (
            ["--profile", "coded", "--servers", "2", "--runs", "10"],
            "the coded profile needs more servers than coding_k=2",
        ),
    ],
    ids=["one-server", "coded-without-a-spare-share"],
)
def test_cli_rejects_server_counts_whose_gate_cannot_pass(capsys, argv, reason):
    """One server never crashes or partitions, and k = n leaves no share
    to repair from: each batch would fail its coverage gate after
    running every schedule."""
    with pytest.raises(SystemExit) as exited:
        chaos_main(argv)
    assert exited.value.code == 2
    assert reason in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize(
    "profile,servers,index",
    [("coded", 4, i) for i in (41, 57, 58)] + [("partition", 3, i) for i in (1, 8, 21)],
)
def test_a_healed_connected_ring_finishes_every_operation(profile, servers, index):
    """Runs that stall today: every fault heals seconds before the
    deadline, yet operations stay open until it and fewer than half
    complete.  The history is linearizable; the run is not live.  A
    non-linearizable run fails outright, not as an expected failure."""
    schedule = generate_schedule(0, index, servers, PROFILES[profile])
    result = run_schedule(schedule, "core")
    if not result.linearizable:
        pytest.fail(f"not linearizable: {result.reason}")
    assert result.ok


def test_restart_schedules_are_generated_and_pass():
    """The core profile schedules crash/restart pairs; a schedule that
    contains one must pass the gate with the restart *proven* in-trace
    (the ``process.restarts`` counter backs the coverage report)."""
    found = None
    for index in range(30):
        schedule = generate_schedule(seed=0, index=index)
        if schedule.plan.restarts:
            found = schedule
            break
    assert found is not None, "core profile must generate restart schedules"
    # Interval validity by construction: each restart strictly follows
    # its crash.
    crash_times = {c.process_name: c.time for c in found.plan.crashes}
    for restart in found.plan.restarts:
        assert restart.time > crash_times[restart.process_name]
    # The restart window extends the stall horizon and thus the
    # workload span: operations demonstrably overlap the recovery.
    assert found.workload_span >= max(r.time for r in found.plan.restarts)

    result = run_schedule(found, "core")
    assert result.ok, f"{found.describe()}: {result.reason}"
    assert "restart" in result.exercised


def test_restart_coverage_accumulates_across_acceptance_batch():
    """Across a 12-run slice of the seed-0 batch (the smoke size), the
    restart kind fires at least once — the CLI coverage gate relies on
    this."""
    exercised = set()
    for index in range(12):
        result = run_schedule(generate_schedule(seed=0, index=index), "core")
        assert result.ok
        exercised |= result.exercised
    assert "restart" in exercised


def test_partition_profile_schedules_always_cut_and_run_heartbeat():
    """Every partition-profile schedule carries at least one partition
    window, restarts every crash, and runs under the imperfect
    detector's fd tag."""
    from repro.chaos import PARTITION_PROFILE, PROFILES

    assert PROFILES["partition"] is PARTITION_PROFILE
    assert PARTITION_PROFILE.fd == "heartbeat"
    for index in range(10):
        schedule = generate_schedule(0, index, 4, PARTITION_PROFILE)
        assert schedule.plan.partitions, "partition-heavy means always cut"
        crashed = {c.process_name for c in schedule.plan.crashes}
        restarted = {r.process_name for r in schedule.plan.restarts}
        assert crashed == restarted, "every crash restarts in this profile"


def test_partition_profile_slice_passes_with_wrong_suspicion_proof():
    """A slice of the acceptance batch: all runs linearizable, and the
    wrongly-suspected-but-alive hazard demonstrably exercised in-trace
    (the fd.wrong_suspicions counter the CLI gate requires)."""
    from repro.chaos import PARTITION_PROFILE

    wrong = 0
    exercised = set()
    for index in range(6):
        schedule = generate_schedule(0, index, 4, PARTITION_PROFILE)
        result = run_schedule(schedule, "core")
        assert result.ok, f"{schedule.describe()}: {result.reason}"
        wrong += result.counters["fd.wrong_suspicions"]
        exercised |= result.exercised
    assert wrong > 0, "no run wrongly suspected a live server"
    assert "partition" in exercised


def test_partition_profile_mixes_hold_and_drop_modes():
    from repro.chaos import PARTITION_PROFILE

    modes = set()
    for index in range(20):
        schedule = generate_schedule(0, index, 4, PARTITION_PROFILE)
        modes |= {p.mode for p in schedule.plan.partitions}
    assert modes == {"hold", "drop"}


def test_required_ops_floor_follows_the_schedules_profile():
    """The liveness floor is the *schedule's*: a loss-free gentle batch
    run against the core protocol must require every operation to
    complete, not inherit the core profile's lossy half-floor."""
    schedule = generate_schedule(seed=1, index=0, profile=GENTLE_PROFILE)
    result = run_schedule(schedule, "core")
    assert result.ops_required == schedule.num_clients * schedule.ops_per_client
    assert result.ok, result.describe()
