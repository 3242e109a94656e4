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
from collections import Counter
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
    SCALE_PROFILE,
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
    #: Whether the target survives every fault profile of its own shape
    #: (one register or the block store); a failure-free baseline runs
    #: only its own loss-free profile.
    tolerant: bool = False

    def accepts(self, profile: ChaosProfile) -> bool:
        if self.tolerant:
            return profile.sharded == self.profile.sharded
        return profile is self.profile


def _build_core(num_servers: int, **kwargs) -> SimCluster:
    return SimCluster.build(num_servers=num_servers, **kwargs)


def _build_sharded(num_servers: int, num_blocks: int = 8, **kwargs) -> SimCluster:
    """A cluster whose servers each host one protocol instance per block."""

    def factory(cluster: SimCluster, server_id: int) -> ShardedServerHost:
        return ShardedServerHost(cluster, server_id, num_blocks)

    return SimCluster.build(num_servers=num_servers, host_factory=factory, **kwargs)


TARGETS: dict[str, ProtocolTarget] = {
    "core": ProtocolTarget("core", _build_core, CORE_PROFILE, tolerant=True),
    "sharded": ProtocolTarget("sharded", _build_sharded, SCALE_PROFILE, tolerant=True),
    "abd": ProtocolTarget("abd", build_abd_cluster, GENTLE_PROFILE),
    "chain": ProtocolTarget("chain", build_chain_cluster, GENTLE_PROFILE),
    "tob": ProtocolTarget("tob", build_tob_cluster, GENTLE_PROFILE),
    "naive": ProtocolTarget("naive", build_naive_cluster, GENTLE_PROFILE, atomic=False),
}


def target_for(profile: ChaosProfile) -> str:
    """The tolerant target that runs ``profile``: its shape decides."""
    return next(
        name for name, target in TARGETS.items()
        if target.tolerant and target.accepts(profile)
    )  # fmt: skip


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

#: The counter fragments of a run's line, in order: the format, the
#: counters it shows, and the counters any of which, nonzero, make it
#: show (none: always shown).  Session retransmits and suppressed
#: duplicates prove the channel machinery, not generator restraint,
#: kept the run in the reliable-FIFO model; the rest prove a feature's
#: path ran rather than degenerating (one-message frames, all reads
#: fenced, coded steady state only).
RUN_FRAGMENTS = (
    ("rtx={} dup={} ", (RELIABLE_RETRANSMITS, RELIABLE_DUPS_SUPPRESSED), ()),
    ("batched={}f/{}m ", (RELIABLE_BATCHED_FRAMES, RELIABLE_BATCHED_MESSAGES),
     (RELIABLE_BATCHED_FRAMES,)),
    ("wrongsusp={} stale={} ", (FD_WRONG_SUSPICIONS, EPOCH_STALE_DROPPED),
     (FD_WRONG_SUSPICIONS, EPOCH_STALE_DROPPED)),
    ("lease={}lo/{}fb/{}wo ", (LEASE_LOCAL_READS, LEASE_FALLBACKS, LEASE_WAITOUTS),
     (LEASE_LOCAL_READS, LEASE_FALLBACKS)),
    ("coded={}fs/{}rc/{}rp ",
     (CODING_FRAGMENT_STORES, CODING_RECONSTRUCTIONS, CODING_REPAIRS),
     (CODING_FRAGMENT_STORES, CODING_REPAIRS)),
)  # fmt: skip

_MIGRATIONS = (MIGRATION_COMPLETED, MIGRATION_ABORTED, MIGRATION_SPLITS, SHARD_REDIRECTS)


@dataclass(frozen=True)
class Feature:
    """What a batch must prove about one profile feature.

    The feature is on when the gated profile's ``field`` equals
    ``value``.  Its summary line formats the batch totals of ``shown``;
    its gate fails a batch of at least ``min_runs`` gated runs in which
    the ``gate`` counter never fired: such a batch passed the checker
    without exercising the path under test.
    """

    field: str
    value: object
    summary: str
    shown: tuple[str, ...]
    gate: str
    min_runs: int
    fail: str

    def on(self, profile: ChaosProfile) -> bool:
        return getattr(profile, self.field) == self.value


FEATURES = (
    Feature(
        "fd", "heartbeat",
        "imperfect detector: {} wrong suspicion(s) of live servers, all "
        "runs gated through the checker", (FD_WRONG_SUSPICIONS,),
        FD_WRONG_SUSPICIONS, 10,
        "no run wrongly suspected a live server — the batch never "
        "exercised the imperfect detector's defining hazard",
    ),
    Feature(
        "read_leases", True,
        "read leases: {} read(s) served locally, {} fence fallback(s), "
        "{} old-epoch wait-out(s)", (LEASE_LOCAL_READS, LEASE_FALLBACKS, LEASE_WAITOUTS),
        LEASE_LOCAL_READS, 10,
        "no read was served locally under a lease — the batch fenced "
        "everything and never exercised the leased path",
    ),
    Feature(
        "value_coding", "coded",
        "coded backend: {} fragment(s) scattered, {} reconstruction(s), "
        "{} fragment repair(s)",
        (CODING_FRAGMENT_STORES, CODING_RECONSTRUCTIONS, CODING_REPAIRS),
        CODING_REPAIRS, 10,
        "no fragment was ever repaired from peers — the batch never "
        "exercised coded durability (merge union / RADON repair), only "
        "coded steady state",
    ),
    # Aborts need a crash to land inside a migration's short
    # drain/transfer window — rarer than the per-run fault kinds, so
    # this gate needs a bigger batch before "never fired" is evidence
    # of a dead code path.
    Feature(
        "elastic", True,
        "elastic placement: {} migration(s) completed, {} aborted, {} "
        "hot-block split(s), {} client redirect(s)", _MIGRATIONS,
        MIGRATION_ABORTED, 20,
        "no migration was ever aborted — the batch never exercised the "
        "crash-mid-migration abort path (staged state discarded, parked "
        "requests replayed)",
    ),
)  # fmt: skip


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
    #: The run's trace counters by registered name
    #: (:mod:`repro.sim.counters`): the evidence of which faults fired
    #: and what each feature did, for the run line and the batch gates.
    counters: Counter = field(default_factory=Counter)
    #: Sharded runs: how many per-block histories passed the tagged
    #: gate, and the fraction of completed operations carrying a
    #: protocol tag (the gate demands 1.0 — an untagged op would make
    #: the tagged check vacuous, not green).
    blocks_checked: int = 0
    tag_coverage: Optional[float] = None
    #: Elastic runs: completed migrations are part of the per-run gate
    #: — a skew run whose rebalancer never moved a block would pass the
    #: checker while exercising none of the machinery under test.
    migration_required: bool = False
    wall_seconds: float = 0.0

    @property
    def exercised(self) -> set[str]:
        return {
            kind
            for kind, names in _KIND_COUNTERS.items()
            if any(self.counters[name] for name in names)
        }

    @property
    def progressed(self) -> bool:
        return self.ops_completed >= self.ops_required

    @property
    def migrated(self) -> bool:
        return not self.migration_required or self.counters[MIGRATION_COMPLETED] >= 1

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
        counts = self.counters
        shown = "".join(
            form.format(*(counts[name] for name in names))
            for form, names, shows_if in RUN_FRAGMENTS
            if not shows_if or any(counts[name] for name in shows_if)
        )
        if self.tag_coverage is not None:
            shown += f"blocks={self.blocks_checked} tagcov={self.tag_coverage:.3f} "
        if self.migration_required:
            shown += "mig={}c/{}a/{}s redir={} ".format(*(counts[n] for n in _MIGRATIONS))
        return (
            f"{self.protocol:<5} {self.schedule.describe()} "
            f"done={self.ops_completed} open={self.ops_open} "
            f"failed={self.ops_failed} hit={kinds} "
            f"{shown}-> {verdict} ({self.wall_seconds:.2f}s)"
        )


def run_schedule(schedule: ChaosSchedule, protocol: str = "core") -> ChaosResult:
    """Execute one chaos schedule against ``protocol`` and gate it."""
    target = TARGETS.get(protocol)
    if target is None:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; choose from {sorted(TARGETS)}"
        )
    profile = PROFILES.get(schedule.profile, target.profile)
    if not target.accepts(profile):
        accepted = [name for name, known in PROFILES.items() if target.accepts(known)]
        raise ConfigurationError(
            f"protocol {protocol!r} only runs {accepted} schedules, got a "
            f"{schedule.profile!r} one (a baseline survives no crash or "
            "loss; a profile's block count picks one register or the store)"
        )
    builder_kwargs = {}
    if profile.fd != "perfect":
        # Heartbeat schedules run the imperfect detector (and therefore
        # epoch-guarded quorum-installed views) in the cluster.
        builder_kwargs["fd"] = profile.fd
    if profile.sharded:
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
    if profile.sharded:
        client = _block_clients(schedule, cluster, profile)
    else:
        client = _register_clients(schedule, cluster)
    _spawn_workload(schedule, cluster, progress, pacing, client)

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
    if profile.sharded:
        ok, reason, blocks_checked, tag_coverage = _gate_sharded(cluster.history)
    else:
        ok, reason = check_register_history(cluster.history)

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
        counters=Counter(cluster.env.trace.counters),
        blocks_checked=blocks_checked,
        tag_coverage=tag_coverage,
        migration_required=profile.elastic,
        wall_seconds=time.perf_counter() - started,
    )


def _spawn_workload(schedule, cluster, progress, pacing, client) -> None:
    """The closed loop: logical client ``index`` (writers first, then
    readers) starts ``pacing * index / num_clients`` in and issues its
    ``ops_per_client`` operations ``pacing`` apart, each after the last
    completes.  ``client(index, kind)`` attaches the client and returns
    its ``issue(seq, on_complete)``."""
    scheduler = cluster.env.scheduler
    roles = ["write"] * schedule.writers + ["read"] * schedule.readers

    def spawn(op, stagger: float) -> None:
        state = {"seq": 0}

        def on_complete(result) -> None:
            if not result.ok:
                progress["failed"] += 1
            state["seq"] += 1
            if state["seq"] >= schedule.ops_per_client:
                progress["left"] -= 1
                return
            scheduler.schedule(pacing, issue)

        def issue() -> None:
            op(state["seq"], on_complete)

        scheduler.schedule(stagger, issue)

    for index, kind in enumerate(roles):
        spawn(client(index, kind), stagger=pacing * index / max(1, len(roles)))


def _register_clients(schedule, cluster):
    """One client machine per logical client of the single register,
    homed round-robin within its role."""

    def client(index: int, kind: str):
        position = index if kind == "write" else index - schedule.writers
        host = cluster.add_client(home_server=position % schedule.num_servers)
        if kind == "read":
            return lambda seq, done: host.read(done)

        def write(seq: int, done) -> None:
            stamp = b"%d:%d" % (host.client_id, seq)
            host.write(stamp.ljust(schedule.value_size, b"."), done)

        return write

    return client


def _block_clients(schedule, cluster, profile: ChaosProfile):
    """Benchmark-scale clients of the block store.

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
    hop_p = 0.1 if profile.elastic else 0.2
    machines = [
        add_shard_client(cluster, home_server=i % schedule.num_servers)
        for i in range(max(1, schedule.client_machines))
    ]

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

    def client(index: int, kind: str):
        host = machines[index % len(machines)]
        vid = host.add_virtual_client()
        if profile.elastic:
            home = elastic_home(index if kind == "write" else index - schedule.writers)
        else:
            home = index % schedule.num_blocks

        def issue(seq: int, done) -> None:
            reg = rng.randrange(schedule.num_blocks) if rng.random() < hop_p else home
            if kind == "write":
                stamp = b"%d:%d" % (vid, seq)
                host.write_block(
                    reg, stamp.ljust(schedule.value_size, b"."), done, client_id=vid
                )
            else:
                host.read_block(reg, done, client_id=vid)

        return issue

    return client


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
