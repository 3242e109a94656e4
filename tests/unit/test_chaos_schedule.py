"""Unit tests for chaos schedule generation.

Pins the generator invariants the runner relies on — most importantly
that the historic ``len(clients) == 0`` guard on the partition branch
was dead code: every generated schedule has at least two writers and two
readers, so the client-partition branch is always reachable and the
50/50 ring/client split is exactly what the RNG draw decides.
"""

from repro.chaos.schedule import (
    AGGRESSIVE_CLIENT_TIMEOUT,
    CODED_PROFILE,
    CORE_PROFILE,
    GENTLE_PROFILE,
    SKEW_PROFILE,
    generate_schedule,
)


def test_generated_schedules_always_have_clients():
    """The generator cannot produce a zero-client plan: writers are
    drawn from [2,3] and readers from [2,4], so the partition branch's
    old `or len(clients) == 0` fallback could never fire."""
    for index in range(100):
        schedule = generate_schedule(seed=13, index=index)
        assert schedule.writers >= 2
        assert schedule.readers >= 2
        assert schedule.num_clients == schedule.writers + schedule.readers


def test_partition_branch_covers_both_ring_and_client_splits():
    """With the dead guard gone, the 50/50 draw alone decides the
    partition flavour — across many schedules both must appear."""
    ring_partitions = 0
    client_partitions = 0
    for index in range(200):
        schedule = generate_schedule(seed=13, index=index)
        for partition in schedule.plan.partitions:
            names = {name for group in partition.groups for name in group}
            if any(name.startswith("c") for name in names):
                client_partitions += 1
            else:
                ring_partitions += 1
    assert ring_partitions > 0
    assert client_partitions > 0


def test_partition_groups_never_contain_unknown_processes():
    for index in range(50):
        schedule = generate_schedule(seed=21, index=index)
        known = {f"s{i}" for i in range(schedule.num_servers)}
        known |= {f"c{i}" for i in range(schedule.num_clients)}
        for partition in schedule.plan.partitions:
            for group in partition.groups:
                assert set(group) <= known


def test_core_profile_uses_the_aggressive_timeout():
    for index in range(20):
        schedule = generate_schedule(seed=3, index=index, profile=CORE_PROFILE)
        assert schedule.config.client_timeout == AGGRESSIVE_CLIENT_TIMEOUT
        assert schedule.config.client_max_retries > 0
        assert schedule.deadline > schedule.workload_span


def test_coded_profile_configures_striping_within_liveness_bound():
    """The coded profile must turn on the coded backend with epoch-
    guarded views and keep k within the liveness bound (a quorum-
    installed view always retains at least k fragment holders)."""
    for index in range(20):
        schedule = generate_schedule(
            seed=3, index=index, num_servers=4, profile=CODED_PROFILE
        )
        config = schedule.config
        assert config.value_coding == "coded"
        # Epoch-guarded views come from the detector the profile runs
        # under: the config as its cluster runs it.
        assert config.for_detector(CODED_PROFILE.fd).view_quorum
        assert config.coding_n == schedule.num_servers
        assert 1 < config.coding_k <= config.coding_n // 2 + 1
        assert schedule.plan.partitions, "coded profile guarantees partitions"


def test_skew_profile_pins_cluster_size_to_its_rings():
    """Placement rings are literal server ids, so the generator must
    override whatever num_servers the caller passes."""
    for requested in (4, 6, 9):
        schedule = generate_schedule(
            seed=11, index=0, num_servers=requested, profile=SKEW_PROFILE
        )
        assert schedule.num_servers == 4
        assert schedule.num_blocks == 8


def test_skew_crashes_target_the_destination_ring_and_always_restart():
    """Every crash lands on a ring-1 member inside the migration window
    and is paired with a restart — the abort path is under attack, but a
    permanent destination crash would make the migration gate
    unreachable by construction."""
    destination = {f"s{sid}" for sid in SKEW_PROFILE.rings[-1]}
    saw_crash = False
    for index in range(60):
        schedule = generate_schedule(seed=11, index=index, profile=SKEW_PROFILE)
        crashes = {
            fault.process_name: fault.time for fault in schedule.plan.crashes
        }
        restarts = {fault.process_name for fault in schedule.plan.restarts}
        for victim, at in crashes.items():
            saw_crash = True
            assert victim in destination, (
                f"crash on {victim} outside the destination ring"
            )
            assert 0.2 <= at <= 0.9
        assert set(crashes) <= restarts, "every skew crash must restart"
    assert saw_crash


def test_skew_profile_never_partitions():
    """A cut between rings only stalls whole blocks without touching the
    migration machinery, so the profile leaves partitions to the others."""
    for index in range(60):
        schedule = generate_schedule(seed=11, index=index, profile=SKEW_PROFILE)
        assert not schedule.plan.partitions
        assert schedule.writers >= 2 and schedule.readers >= 2


def test_gentle_profile_still_disables_retries():
    for index in range(10):
        schedule = generate_schedule(seed=3, index=index, profile=GENTLE_PROFILE)
        assert schedule.config.client_max_retries == 0
        assert not schedule.plan.crashes
        for fault in schedule.plan.link_faults:
            assert fault.profile.drop_p == 0.0 and fault.profile.dup_p == 0.0


def _drawable_kinds(profile) -> set[str]:
    """The fault kinds ``profile``'s generator can draw at all: a
    non-zero crash weight or a non-zero probability."""
    drawable = {
        "partition": profile.p_partition > 0 or profile.partition_heavy,
        "drop": profile.p_ring_loss > 0 or profile.p_client_loss > 0,
        "delay": profile.p_delay > 0,
        "duplicate": profile.p_duplicate > 0,
        "throttle": profile.p_throttle > 0,
        "pause": profile.p_pause > 0,
        "clock_skew": profile.p_clock_skew > 0,
    }
    crashes = any(profile.crash_weights)
    drawable["crash"] = crashes
    drawable["restart"] = crashes and profile.p_restart > 0
    return {kind for kind, possible in drawable.items() if possible}


def test_every_profile_requires_only_kinds_it_can_draw():
    """A batch gate that demands a fault kind its profile never draws
    can never pass (``--profile gentle`` demanded crashes and drops)."""
    from repro.chaos.__main__ import REQUIRED_KINDS
    from repro.chaos.schedule import FAULT_KINDS, PROFILES

    for name, profile in PROFILES.items():
        required = set(profile.required_kinds or REQUIRED_KINDS)
        assert required <= set(FAULT_KINDS), name
        assert required <= _drawable_kinds(profile), (
            f"profile {name!r} requires {sorted(required - _drawable_kinds(profile))}, "
            "which its generator never draws"
        )
