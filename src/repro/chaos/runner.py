"""Chaos run execution: workload + fault plan + linearizability gate.

:func:`run_schedule` builds a fresh simulated cluster for one
:class:`~repro.chaos.schedule.ChaosSchedule`, drives a closed-loop
mixed read/write workload while the schedule's fault plan fires, records
the complete operation history, and gates the run through the
value-based linearizability checker
(:func:`repro.analysis.linearizability.check_register_history`).

Every protocol of the repo's zoo can be the target: the paper's ring
algorithm (``core``) and each baseline.  The naive read-one/write-all
baseline is *expected* to violate atomicity — that anomaly is the
paper's motivation — so its violations are reported as expected
anomalies rather than failures.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.history import History
from repro.analysis.linearizability import check_register_history, check_tagged_history
from repro.baselines import (
    build_abd_cluster,
    build_chain_cluster,
    build_naive_cluster,
    build_tob_cluster,
)
from repro.chaos.schedule import (
    CORE_PROFILE,
    GENTLE_PROFILE,
    LEASE_PROFILE,
    PARTITION_PROFILE,
    SCALE_PROFILE,
    SKEW_PROFILE,
    PROFILES,
    ChaosProfile,
    ChaosSchedule,
)
from repro.sim.counters import (
    CODING_FRAGMENT_STORES,
    CODING_RECONSTRUCTIONS,
    CODING_REPAIRS,
    EPOCH_STALE_DROPPED,
    FD_WRONG_SUSPICIONS,
    LEASE_FALLBACKS,
    LEASE_LOCAL_READS,
    LEASE_WAITOUTS,
    MIGRATION_ABORTED,
    MIGRATION_COMPLETED,
    MIGRATION_SPLITS,
    NEMESIS_CLOCK_SKEWS,
    NEMESIS_CUT_DROPS,
    NEMESIS_DELAYED,
    NEMESIS_DROPS,
    NEMESIS_DUP_DELIVERIES,
    NEMESIS_HELD,
    NEMESIS_PAUSES,
    NEMESIS_THROTTLES,
    PROCESS_CRASHES,
    PROCESS_RESTARTS,
    RELIABLE_BATCHED_FRAMES,
    RELIABLE_BATCHED_MESSAGES,
    RELIABLE_DUPS_SUPPRESSED,
    RELIABLE_RETRANSMITS,
    SHARD_REDIRECTS,
)
from repro.errors import ConfigurationError
from repro.runtime.sharded import (
    ShardedServerHost,
    add_shard_client,
    build_elastic_cluster,
)
from repro.runtime.sim_net import SimCluster
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class ProtocolTarget:
    """One protocol the chaos harness can attack."""

    name: str
    builder: object  # (num_servers, seed=..., protocol=...) -> SimCluster
    profile: ChaosProfile
    #: Whether a linearizability violation fails the run (False only for
    #: the naive baseline, whose read inversion is the expected anomaly).
    atomic: bool = True


def _build_core(num_servers: int, **kwargs) -> SimCluster:
    return SimCluster.build(num_servers=num_servers, **kwargs)


def _build_sharded(num_servers: int, num_blocks: int = 8, **kwargs) -> SimCluster:
    """A cluster whose servers each host one protocol instance per block."""

    def factory(cluster: SimCluster, server_id: int) -> ShardedServerHost:
        return ShardedServerHost(cluster, server_id, num_blocks)

    return SimCluster.build(num_servers=num_servers, host_factory=factory, **kwargs)


TARGETS: dict[str, ProtocolTarget] = {
    "core": ProtocolTarget("core", _build_core, CORE_PROFILE),
    "sharded": ProtocolTarget("sharded", _build_sharded, SCALE_PROFILE),
    "abd": ProtocolTarget("abd", build_abd_cluster, GENTLE_PROFILE),
    "chain": ProtocolTarget("chain", build_chain_cluster, GENTLE_PROFILE),
    "tob": ProtocolTarget("tob", build_tob_cluster, GENTLE_PROFILE),
    "naive": ProtocolTarget("naive", build_naive_cluster, GENTLE_PROFILE, atomic=False),
}

#: Trace counters proving a fault type actually fired during a run.
#: Where possible these count *effect*, not injection: a partition is
#: exercised when it held or dropped a frame, not merely when its cut
#: was installed.
_KIND_COUNTERS = {
    "crash": (PROCESS_CRASHES,),
    "restart": (PROCESS_RESTARTS,),
    "partition": (NEMESIS_HELD, NEMESIS_CUT_DROPS),
    "drop": (NEMESIS_DROPS,),
    "delay": (NEMESIS_DELAYED,),
    "duplicate": (NEMESIS_DUP_DELIVERIES,),
    "throttle": (NEMESIS_THROTTLES,),
    "pause": (NEMESIS_PAUSES,),
    "clock_skew": (NEMESIS_CLOCK_SKEWS,),
}


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    schedule: ChaosSchedule
    protocol: str
    linearizable: bool
    reason: str
    ops_completed: int
    ops_open: int
    ops_failed: int
    #: Completions required for the run to count as live: an empty or
    #: near-empty history passes the linearizability check vacuously, so
    #: safety alone would let a total deadlock report green.
    ops_required: int = 0
    exercised: set[str] = field(default_factory=set)
    #: Session-layer activity (repro.transport.reliable): proof that the
    #: implemented channel machinery — not generator restraint — is what
    #: kept the run inside the protocol's reliable-FIFO model.
    retransmits: int = 0
    dups_suppressed: int = 0
    #: Ring-frame batching activity: frames that carried more than one
    #: session segment, and the segments they carried.  Nonzero proves a
    #: batched run actually exercised the batched wire path rather than
    #: degenerating to one-message frames.
    batched_frames: int = 0
    batched_messages: int = 0
    #: Imperfect-detector activity (fd="heartbeat" profiles): suspicions
    #: raised against servers that were actually alive — the in-trace
    #: proof that a run exercised wrong suspicion — and data frames the
    #: epoch guard rejected as stale.
    wrong_suspicions: int = 0
    stale_epoch_drops: int = 0
    #: Leased-read activity (``read_leases`` profiles): reads served
    #: locally under a valid lease, reads that fell back to a ring
    #: fence, and old-epoch wait-outs honoured at view installs — the
    #: in-trace proof that a run exercised the leased path and its
    #: safety machinery rather than silently fencing everything.
    lease_local_reads: int = 0
    lease_fallbacks: int = 0
    lease_waitouts: int = 0
    #: Coded-backend activity (``value_coding="coded"`` profiles):
    #: fragments scattered by writes, full-value reconstructions served
    #: to readers, and fragment *repairs* — shares re-derived from k
    #: peers by a reconfiguration merge or a read that found its local
    #: share stale.  Nonzero repairs are the in-trace proof that a run
    #: exercised coded durability, not just coded steady state.
    coding_fragment_stores: int = 0
    coding_reconstructions: int = 0
    coding_repairs: int = 0
    #: Sharded runs: how many per-block histories passed the tagged
    #: gate, and the fraction of completed operations carrying a
    #: protocol tag (the gate demands 1.0 — an untagged op would make
    #: the tagged check vacuous, not green).
    blocks_checked: int = 0
    tag_coverage: Optional[float] = None
    #: Elastic runs: live-migration activity.  ``migration_required``
    #: makes completed migrations part of the per-run gate — a skew run
    #: whose rebalancer never moved a block would pass the checker
    #: while exercising none of the machinery under test.
    migration_required: bool = False
    migrations_completed: int = 0
    migrations_aborted: int = 0
    migration_splits: int = 0
    shard_redirects: int = 0
    wall_seconds: float = 0.0

    @property
    def progressed(self) -> bool:
        return self.ops_completed >= self.ops_required

    @property
    def migrated(self) -> bool:
        return not self.migration_required or self.migrations_completed >= 1

    @property
    def ok(self) -> bool:
        """Whether the run passes its gate (naive may violate safety,
        but even naive must make progress)."""
        if not self.progressed:
            return False
        if not self.migrated:
            return False
        if TARGETS[self.protocol].atomic:
            return self.linearizable
        return True

    @property
    def anomaly(self) -> bool:
        return not self.linearizable and not TARGETS[self.protocol].atomic

    def describe(self) -> str:
        if not self.progressed:
            verdict = f"STALLED: {self.ops_completed}/{self.ops_required} required ops"
        elif not self.migrated:
            verdict = "NO MIGRATION: rebalancer never completed a move"
        elif self.linearizable:
            verdict = "OK"
        elif self.anomaly:
            verdict = "ANOMALY (expected)"
        else:
            verdict = f"VIOLATION: {self.reason}"
        kinds = ",".join(sorted(self.exercised)) or "none"
        imperfect = (
            f"wrongsusp={self.wrong_suspicions} stale={self.stale_epoch_drops} "
            if self.wrong_suspicions or self.stale_epoch_drops
            else ""
        )
        leases = (
            f"lease={self.lease_local_reads}lo/{self.lease_fallbacks}fb/"
            f"{self.lease_waitouts}wo "
            if self.lease_local_reads or self.lease_fallbacks
            else ""
        )
        coded = (
            f"coded={self.coding_fragment_stores}fs/"
            f"{self.coding_reconstructions}rc/{self.coding_repairs}rp "
            if self.coding_fragment_stores or self.coding_repairs
            else ""
        )
        sharded = (
            f"blocks={self.blocks_checked} "
            f"tagcov={self.tag_coverage:.3f} "
            if self.tag_coverage is not None
            else ""
        )
        elastic = (
            f"mig={self.migrations_completed}c/{self.migrations_aborted}a/"
            f"{self.migration_splits}s redir={self.shard_redirects} "
            if self.migration_required
            else ""
        )
        batching = (
            f"batched={self.batched_frames}f/{self.batched_messages}m "
            if self.batched_frames
            else ""
        )
        return (
            f"{self.protocol:<5} {self.schedule.describe()} "
            f"done={self.ops_completed} open={self.ops_open} "
            f"failed={self.ops_failed} hit={kinds} "
            f"rtx={self.retransmits} dup={self.dups_suppressed} {batching}"
            f"{imperfect}{leases}{coded}{sharded}{elastic}"
            f"-> {verdict} ({self.wall_seconds:.2f}s)"
        )


def run_schedule(schedule: ChaosSchedule, protocol: str = "core") -> ChaosResult:
    """Execute one chaos schedule against ``protocol`` and gate it."""
    target = TARGETS.get(protocol)
    if target is None:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; choose from {sorted(TARGETS)}"
        )
    allowed_profiles = {target.profile.name}
    if protocol == "sharded":
        # The sharded block store runs both the uniform benchmark-scale
        # profile and the elastic skewed one.
        allowed_profiles.add(SKEW_PROFILE.name)
    if protocol != "core" and schedule.profile not in allowed_profiles:
        raise ConfigurationError(
            f"protocol {protocol!r} only survives {sorted(allowed_profiles)} "
            f"schedules, got a {schedule.profile!r} one (crashes and message "
            "loss are outside the failure-free baselines' model)"
        )
    if schedule.num_blocks > 1 and protocol != "sharded":
        raise ConfigurationError(
            f"schedule targets {schedule.num_blocks} blocks; only the "
            "'sharded' protocol hosts a multi-register cluster"
        )
    profile = PROFILES.get(schedule.profile, target.profile)
    builder_kwargs = {}
    if profile.fd != "perfect":
        # Heartbeat schedules run the imperfect detector (and therefore
        # epoch-guarded quorum-installed views) in the cluster.
        builder_kwargs["fd"] = profile.fd
    if protocol == "sharded":
        builder_kwargs["num_blocks"] = schedule.num_blocks
    started = time.perf_counter()
    if profile.elastic:
        # Elastic skew run: explicit placement over the profile's rings
        # with the rebalancer live.  Its cadence is drawn per schedule so
        # the first tick (and therefore the migration window) sweeps
        # across the crash window over a batch — some runs migrate
        # cleanly before the crash, others get caught mid-transfer and
        # must abort and retry.
        pacing_rng = random.Random(
            derive_seed(
                schedule.seed, f"chaos.rebalance.{schedule.profile}.{schedule.index}"
            )
        )
        cluster = build_elastic_cluster(
            schedule.num_servers,
            schedule.num_blocks,
            list(profile.rings),
            seed=schedule.cluster_seed,
            protocol=schedule.config,
            rebalance_interval=round(pacing_rng.uniform(0.03, 0.08), 4),
            rebalance_first_delay=round(pacing_rng.uniform(0.05, 0.6), 4),
            horizon=schedule.deadline,
            imbalance=1.3,
            split_fraction=0.4,
            min_load=5.0,
        )
    else:
        cluster = target.builder(
            schedule.num_servers,
            seed=schedule.cluster_seed,
            protocol=schedule.config,
            **builder_kwargs,
        )
    cluster.history = History()

    progress = {"left": schedule.num_clients, "failed": 0}
    # Pace each client's operations across the whole fault span so the
    # workload demonstrably overlaps every scheduled fault window; the
    # stagger desynchronises clients to maximise read/write concurrency.
    pacing = schedule.workload_span / max(1, schedule.ops_per_client)

    if protocol == "sharded":
        _spawn_sharded_workload(schedule, cluster, progress, pacing)
    else:
        _spawn_register_workload(schedule, cluster, progress, pacing)

    # Faults are applied after the clients exist so client-side links
    # (partitions isolating clients) resolve to real processes.
    cluster.apply_faults(schedule.plan)

    scheduler = cluster.env.scheduler
    while progress["left"] > 0 and cluster.now < schedule.deadline:
        if not scheduler.step():
            break  # idle: every remaining operation is permanently stalled

    cluster.history.close()
    blocks_checked = 0
    tag_coverage = None
    if protocol == "sharded":
        ok, reason, blocks_checked, tag_coverage = _gate_sharded(cluster.history)
    else:
        ok, reason = check_register_history(cluster.history)

    counters = cluster.env.trace.counters
    exercised = {
        kind
        for kind, names in _KIND_COUNTERS.items()
        if any(counters.get(name, 0) > 0 for name in names)
    }
    completed = len(cluster.history.completed())
    total_ops = schedule.num_clients * schedule.ops_per_client
    # Gentle schedules lose nothing, so every operation must complete;
    # under the full menu, retry exhaustion may legitimately fail a few
    # ops, but losing more than half the workload is a liveness bug.
    # The floor follows the *schedule's* profile: a profile-overridden
    # run (e.g. a gentle batch against the core protocol) is judged by
    # what its schedule can lose, not by the target's default menu.
    required = total_ops if not profile.retries else (total_ops + 1) // 2
    return ChaosResult(
        schedule=schedule,
        protocol=protocol,
        linearizable=ok,
        reason=reason if not ok else "",
        ops_completed=completed,
        ops_open=len(cluster.history) - completed,
        ops_failed=progress["failed"],
        ops_required=required,
        exercised=exercised,
        retransmits=counters.get(RELIABLE_RETRANSMITS, 0),
        dups_suppressed=counters.get(RELIABLE_DUPS_SUPPRESSED, 0),
        batched_frames=counters.get(RELIABLE_BATCHED_FRAMES, 0),
        batched_messages=counters.get(RELIABLE_BATCHED_MESSAGES, 0),
        wrong_suspicions=counters.get(FD_WRONG_SUSPICIONS, 0),
        stale_epoch_drops=counters.get(EPOCH_STALE_DROPPED, 0),
        lease_local_reads=counters.get(LEASE_LOCAL_READS, 0),
        lease_fallbacks=counters.get(LEASE_FALLBACKS, 0),
        lease_waitouts=counters.get(LEASE_WAITOUTS, 0),
        coding_fragment_stores=counters.get(CODING_FRAGMENT_STORES, 0),
        coding_reconstructions=counters.get(CODING_RECONSTRUCTIONS, 0),
        coding_repairs=counters.get(CODING_REPAIRS, 0),
        blocks_checked=blocks_checked,
        tag_coverage=tag_coverage,
        migration_required=profile.elastic,
        migrations_completed=counters.get(MIGRATION_COMPLETED, 0),
        migrations_aborted=counters.get(MIGRATION_ABORTED, 0),
        migration_splits=counters.get(MIGRATION_SPLITS, 0),
        shard_redirects=counters.get(SHARD_REDIRECTS, 0),
        wall_seconds=time.perf_counter() - started,
    )


def _spawn_register_workload(schedule, cluster, progress, pacing) -> None:
    """Closed-loop workload over the single register: one client machine
    per logical client, reads and writes paced across the fault span."""

    def spawn(host, kind: str, stagger: float) -> None:
        state = {"seq": 0}

        def on_complete(result) -> None:
            if not result.ok:
                progress["failed"] += 1
            state["seq"] += 1
            if state["seq"] >= schedule.ops_per_client:
                progress["left"] -= 1
                return
            cluster.env.scheduler.schedule(pacing, issue)

        def issue() -> None:
            if kind == "write":
                stamp = b"%d:%d" % (host.client_id, state["seq"])
                host.write(stamp.ljust(schedule.value_size, b"."), on_complete)
            else:
                host.read(on_complete)

        cluster.env.scheduler.schedule(stagger, issue)

    num_clients = schedule.num_clients
    for i in range(schedule.writers):
        spawn(cluster.add_client(home_server=i % schedule.num_servers), "write",
              stagger=pacing * i / max(1, num_clients))
    for i in range(schedule.readers):
        spawn(cluster.add_client(home_server=i % schedule.num_servers), "read",
              stagger=pacing * (schedule.writers + i) / max(1, num_clients))


def _spawn_sharded_workload(schedule, cluster, progress, pacing) -> None:
    """Benchmark-scale workload over the block store.

    The paper's methodology scaled out by emulating clients: "the client
    application can emulate multiple clients... a single writing node can
    saturate the storage."  Likewise here — ``schedule.client_machines``
    machines multiplex ``writers + readers`` *logical* clients, each
    pinned to a home block (round-robin, so every block sees writers and
    readers) with an occasional deterministic hop to a random block.
    The hops matter: a logical client that times out mid-hop retries
    an operation started against one block after its machine has issued
    traffic to others, which is exactly the envelope mis-routing
    scenario the per-op block pinning in ShardClientHost guards.
    """
    rng = random.Random(
        derive_seed(schedule.seed, f"chaos.workload.{schedule.profile}.{schedule.index}")
    )
    chaos_profile = PROFILES.get(schedule.profile)
    elastic = chaos_profile is not None and chaos_profile.elastic
    hop_p = 0.1 if elastic else 0.2
    machines = [
        add_shard_client(cluster, home_server=i % schedule.num_servers)
        for i in range(max(1, schedule.client_machines))
    ]
    roles = ["write"] * schedule.writers + ["read"] * schedule.readers

    def elastic_home(pos: int) -> int:
        # Skewed homes are the whole point of the skew profile: the first
        # num_blocks clients of each role class cover every block (so the
        # per-block tagged gate always has traffic to check), and every
        # extra client piles onto block 0 (and a little onto block 1) so
        # the rebalancer's imbalance threshold is guaranteed to trip.
        if pos < schedule.num_blocks:
            return pos
        roll = rng.random()
        if roll < 0.8:
            return 0
        if roll < 0.95:
            return 1 % schedule.num_blocks
        return rng.randrange(schedule.num_blocks)

    def spawn(host, vid: int, kind: str, home: int, stagger: float) -> None:
        state = {"seq": 0}

        def on_complete(result) -> None:
            if not result.ok:
                progress["failed"] += 1
            state["seq"] += 1
            if state["seq"] >= schedule.ops_per_client:
                progress["left"] -= 1
                return
            cluster.env.scheduler.schedule(pacing, issue)

        def issue() -> None:
            if rng.random() < hop_p:
                reg = rng.randrange(schedule.num_blocks)
            else:
                reg = home
            if kind == "write":
                stamp = b"%d:%d" % (vid, state["seq"])
                host.write_block(
                    reg, stamp.ljust(schedule.value_size, b"."),
                    on_complete, client_id=vid,
                )
            else:
                host.read_block(reg, on_complete, client_id=vid)

        cluster.env.scheduler.schedule(stagger, issue)

    for index, kind in enumerate(roles):
        host = machines[index % len(machines)]
        vid = host.add_virtual_client()
        if elastic:
            pos = index if kind == "write" else index - schedule.writers
            home = elastic_home(pos)
        else:
            home = index % schedule.num_blocks
        spawn(host, vid, kind, home=home,
              stagger=pacing * index / max(1, len(roles)))


#: Below this many blocks the per-block gate runs inline: worker startup
#: costs more than the checks themselves on small splits.
_GATE_PARALLEL_MIN_BLOCKS = 4


def _check_block(item: tuple) -> tuple:
    """Worker: gate one block's history (module-level for pickling)."""
    block, block_history = item
    ok, reason = check_tagged_history(block_history, require_full_coverage=True)
    return block, ok, reason


def _gate_sharded(history: History) -> tuple[bool, str, int, float]:
    """Per-block tagged gate: split the history by block key and require
    every block's history to pass ``check_tagged_history`` at full tag
    coverage.  Returns ``(ok, reason, blocks_checked, coverage)``.

    The per-block checks are independent, so benchmark-scale splits
    (8+ blocks, thousands of operations each) fan out over a process
    pool.  The verdict is deterministic either way: blocks are checked
    in sorted key order and the *first* failing block in that order is
    reported, regardless of which worker finished first — and
    ``blocks_checked`` keeps the sequential meaning (blocks up to and
    including the first failure).
    """
    completed = history.completed()
    tagged = sum(1 for op in completed if op.tag is not None)
    coverage = tagged / len(completed) if completed else 1.0
    per_block = history.split_by_block()
    orphans = per_block.pop(None, None)
    if orphans is not None:
        return (
            False,
            f"{len(orphans.operations)} operation(s) recorded without a "
            "block key cannot be gated",
            0,
            coverage,
        )
    items = [(block, per_block[block]) for block in sorted(per_block)]
    if len(items) < _GATE_PARALLEL_MIN_BLOCKS:
        verdicts = [_check_block(item) for item in items]
    else:
        workers = min(len(items), multiprocessing.cpu_count())
        with multiprocessing.Pool(processes=workers) as pool:
            # Pool.map preserves input order, so the fan-out cannot
            # reorder which failure wins.
            verdicts = pool.map(_check_block, items)
    blocks_checked = 0
    for block, ok, reason in verdicts:
        blocks_checked += 1
        if not ok:
            return False, f"block {block}: {reason}", blocks_checked, coverage
    return True, "", blocks_checked, coverage
