"""Randomized chaos schedule generation.

A :class:`ChaosSchedule` bundles everything one chaos run needs: a
:class:`~repro.sim.faults.FaultPlan` drawn from a seeded RNG, the
workload shape, the protocol tunables and the run deadline.  Schedules
are pure data — :mod:`repro.chaos.runner` executes them — and are fully
determined by ``(seed, index, profile, num_servers)``, so any failing run
can be replayed bit-identically from its coordinates.

The generation profiles encode which faults a protocol family can be
expected to survive (see also ``PARTITION_PROFILE`` — the imperfect
heartbeat detector under partition-heavy schedules — and
``SCALE_PROFILE`` — the sharded ``BlockStore`` at multi-thousand-op
benchmark scale, gated per block by the tagged checker):

``CORE_PROFILE``
    The full menu for the paper's ring algorithm: crashes (the paper's
    n−1 claim), crash *recovery* (a crashed server restarts from its
    durable snapshot and rejoins the ring mid-run), hold-mode
    partitions of either network, probabilistic drop and duplication on
    any link, FIFO-preserving delays, NIC throttles and process
    pauses — with *no* scheduling restrictions.
    Two historic envelopes are gone because the reliable session layer
    (:mod:`repro.transport.reliable`) now implements the channel model
    instead of the generator assuming it:

    * ring loss freely combines with crashes, on any ring link (not just
      successor links): a dropped pre-write is retransmitted, so a
      crash-triggered state merge no longer resurrects zombie pending
      entries left by silent loss;
    * the client timeout is an aggressive constant
      (:data:`AGGRESSIVE_CLIENT_TIMEOUT`) well below the stall horizon,
      so retries deliberately race stalled operations; safety rests on
      server-side OpId deduplication plus the session layer's
      duplicate suppression, which is exactly the claim the harness is
      meant to attack.

``GENTLE_PROFILE``
    Pure-delay menu for the failure-free baselines (ABD, chain, TOB,
    naive): hold-mode partitions, delays, throttles and pauses, with
    client retries disabled.  Nothing is ever lost, so every baseline
    except the (deliberately broken) naive one must stay linearizable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.core.config import ProtocolConfig
from repro.fd.heartbeat import HeartbeatConfig
from repro.sim.faults import FaultPlan
from repro.sim.rng import derive_seed

#: Fault types the harness knows how to schedule and count.
FAULT_KINDS = (
    "crash", "restart", "partition", "drop", "delay", "duplicate",
    "throttle", "pause", "clock_skew",
)


@dataclass(frozen=True)
class ChaosProfile:
    """Which fault types a schedule may contain, with probabilities."""

    name: str
    crash_weights: tuple[int, ...] = (0,)  # distribution of crash counts
    #: Per crash, the probability that a matching restart is scheduled —
    #: turning the crash into a crash-*recovery* event: the server comes
    #: back from its durable snapshot and rejoins the ring mid-run.
    p_restart: float = 0.0
    p_partition: float = 0.0
    p_ring_loss: float = 0.0    # probabilistic drop on a ring link
    p_client_loss: float = 0.0  # probabilistic drop on a client link
    p_duplicate: float = 0.0
    p_delay: float = 0.0
    p_throttle: float = 0.0
    p_pause: float = 0.0
    #: Per-server probability of an absolute clock-skew fault, drawn
    #: within the declared ``clock_drift_bound`` — the adversary the
    #: lease arithmetic's ``2*drift`` charge is provably sound against.
    #: (Offsets beyond the declared bound would break the *assumption*,
    #: not the implementation, so the generator stays inside it.)
    p_clock_skew: float = 0.0
    retries: bool = True
    #: Failure detector the cluster runs under this profile: "perfect"
    #: (the oracle the paper assumes) or "heartbeat" (the imperfect
    #: detector + epoch-guarded quorum-installed views).
    fd: str = "perfect"
    #: Partition-heavy generation: guaranteed partition windows (hold
    #: *and* drop modes), long enough for the heartbeat detector to
    #: wrongly suspect a partitioned-but-alive server, with at most one
    #: *permanent* crash so the surviving side always keeps an ack
    #: quorum of the current view and the run stays live.
    partition_heavy: bool = False
    #: Epoch-scoped read leases (``ProtocolConfig.read_leases``): reads
    #: are served locally under a valid lease and fence through the ring
    #: otherwise.  Implies quorum-installed views; only meaningful with
    #: ``fd="heartbeat"``.
    read_leases: bool = False
    #: Value backend ("replicated" or "coded").  "coded" stripes every
    #: value k-of-n across the ring (``ProtocolConfig.value_coding``);
    #: implies quorum-installed views and sets ``coding_n`` to the
    #: cluster size at generation time.
    value_coding: str = "replicated"
    #: Fault kinds the batch gate requires to have demonstrably fired
    #: (empty means the harness-wide default applies).
    required_kinds: tuple[str, ...] = ()
    #: Benchmark-scale sharded generation: the ``(lo, hi)`` draw range
    #: for the number of blocks — ``(0, 0)`` means unsharded (one
    #: register, the default) — and the minimum total operations per
    #: run.  A sharded profile sizes the workload as *logical* clients
    #: multiplexed over a few client machines (the paper's "a single
    #: writing node can saturate the storage") and is gated per block by
    #: the O(n log n) tagged checker, the only one that survives
    #: multi-thousand-op histories.
    blocks: tuple[int, int] = (0, 0)
    min_total_ops: int = 0
    #: Elastic sharded generation: the cluster runs explicit placement
    #: over ``rings`` (disjoint server-id tuples) with the rebalancer
    #: live-migrating blocks mid-run.  Crash victims are drawn from the
    #: *destination* ring — the migration target — so schedules attack
    #: the transfer/cutover window, and the batch gate requires in-trace
    #: completed migrations (plus aborts, across a large batch).
    elastic: bool = False
    rings: tuple[tuple[int, ...], ...] = ()

    @property
    def sharded(self) -> bool:
        """Whether schedules run on the multi-register block store."""
        return self.blocks[0] > 0


CORE_PROFILE = ChaosProfile(
    name="core",
    crash_weights=(0, 0, 1, 1, 1, 2),
    p_restart=0.75,
    p_partition=0.55,
    p_ring_loss=0.5,
    p_client_loss=0.6,
    p_duplicate=0.6,
    p_delay=0.7,
    p_throttle=0.45,
    p_pause=0.45,
    retries=True,
)

GENTLE_PROFILE = ChaosProfile(
    name="gentle",
    crash_weights=(0,),
    p_partition=0.5,
    p_ring_loss=0.0,
    p_client_loss=0.0,
    p_duplicate=0.0,
    p_delay=0.8,
    p_throttle=0.5,
    p_pause=0.5,
    retries=False,
    # What its menu draws: no crash, no loss, no duplication.
    required_kinds=("partition", "delay", "throttle", "pause"),
)

#: Partition-tolerant reconfiguration under the *imperfect* detector.
#: Every schedule cuts the cluster at least once (hold and drop modes
#: both drawn), long enough past the heartbeat timeout that a
#: partitioned-but-alive server is wrongly suspected, excluded by a
#: quorum-installed epoch, and folded back after the heal — combined
#: with crashes, restarts, link loss/delay/duplication, throttles and
#: pauses.  Every crash restarts: under quorum-installed views a member
#: lost *permanently* from an already-shrunken view (say, the ring
#: wrongly excluded two partitioned peers and then one of the two
#: survivors died for good) is an unrecoverable configuration in any
#: majority-based reconfigurable system — the epoch guard makes such a
#: side stall rather than fork, so a schedule that durably destroys the
#: last quorum would fail the liveness gate by design, not by bug.
#: Permanent crashes stay covered by the perfect-detector core profile.
PARTITION_PROFILE = ChaosProfile(
    name="partition",
    fd="heartbeat",
    partition_heavy=True,
    crash_weights=(0, 1, 1, 2),
    p_restart=1.0,
    p_partition=1.0,
    p_ring_loss=0.45,
    p_client_loss=0.5,
    p_duplicate=0.5,
    p_delay=0.6,
    p_throttle=0.4,
    p_pause=0.4,
    retries=True,
    required_kinds=("crash", "restart", "partition", "drop", "delay", "duplicate"),
)

#: Leased local reads under the partition envelope.  Same guaranteed
#: partition windows and imperfect-detector churn as ``partition`` —
#: wrong suspicion is exactly the hazard a lease must die *before* —
#: plus ``read_leases`` on and guaranteed per-server clock-skew faults
#: drawn within the declared drift bound, attacking the lease
#: freshness/wait-out arithmetic (a skewed holder ages grants faster or
#: slower than their grantors intended; the ``2*drift`` charge must
#: absorb it).  The batch gate additionally demands in-trace leased
#: local reads: a batch that silently fenced every read would pass the
#: checker without ever exercising the path under test.
LEASE_PROFILE = replace(
    PARTITION_PROFILE,
    name="lease",
    read_leases=True,
    p_clock_skew=0.6,
    required_kinds=PARTITION_PROFILE.required_kinds + ("clock_skew",),
)

#: The erasure-coded value backend under the partition envelope.  Same
#: guaranteed partition windows, imperfect-detector churn, crashes and
#: restarts as ``partition`` — every one of which now moves *fragments*:
#: a reconfiguration merge must union surviving fragment shares, a
#: rejoiner must re-derive its share from k peers (the RADON-style
#: repair), and a read landing on a server without the full value must
#: reconstruct it from k live fragment holders mid-fault.  The batch
#: gate additionally demands in-trace fragment repairs: a batch whose
#: merges never repaired a share would pass the checker without ever
#: exercising the path that makes coded durability work.
CODED_PROFILE = replace(PARTITION_PROFILE, name="coded", value_coding="coded")

#: Chaos at benchmark scale: the sharded ``BlockStore`` under the core
#: fault envelope — crashes with restarts, partitions, link loss, delay,
#: duplication, throttles and pauses — with a multi-thousand-operation
#: concurrent workload (dozens of logical clients over a handful of
#: client machines, 8–12 blocks).  Every run is gated per block through
#: ``check_tagged_history`` at 100% tag coverage: the value-based
#: checker's search is hopeless on histories this size, so the tagged
#: checker's O(n log n) claim is what makes the gate affordable — and
#: the harness proves it load-bearing on every run.  At least one crash
#: per schedule keeps crash/restart coverage dense enough for a 10-run
#: acceptance batch.
SCALE_PROFILE = ChaosProfile(
    name="scale",
    crash_weights=(1, 1, 2),
    p_restart=0.85,
    p_partition=0.7,
    p_ring_loss=0.55,
    p_client_loss=0.6,
    p_duplicate=0.6,
    p_delay=0.7,
    p_throttle=0.4,
    p_pause=0.4,
    retries=True,
    blocks=(8, 12),
    min_total_ops=5000,
    required_kinds=("crash", "restart", "partition", "drop", "delay", "duplicate"),
)

#: Elastic sharding under a deliberately skewed workload: two rings of
#: two servers, eight blocks, and a client population concentrated on
#: blocks 0 and 1 (plus a round-robin tail so every block still gets a
#: writer and a reader — no block's history is checked vacuously).  The
#: rebalancer must migrate and split hot blocks off ring 0 *mid-run*,
#: while every crash in the schedule lands on a ring-1 (destination)
#: member inside the migration window with a guaranteed restart: the
#: abort path — staged state discarded, parked requests replayed, the
#: placement table untouched — is the thing under attack, and
#: duplication attacks the transfer nonce.  Partitions are left to the
#: other profiles: a cut between rings only stalls whole blocks without
#: touching the migration machinery.  The batch gate demands in-trace
#: completed migrations on every run (and aborts across the batch);
#: per-block tagged checking stays at 100% coverage.
SKEW_PROFILE = ChaosProfile(
    name="skew",
    elastic=True,
    rings=((0, 1), (2, 3)),
    crash_weights=(1, 1, 2),
    p_restart=1.0,
    p_partition=0.0,
    p_ring_loss=0.4,
    p_client_loss=0.4,
    p_duplicate=0.6,
    p_delay=0.6,
    p_throttle=0.3,
    p_pause=0.3,
    retries=True,
    blocks=(8, 8),
    min_total_ops=2500,
    required_kinds=("crash", "restart"),
)

#: Generation profiles by name (the runner maps a schedule's profile
#: string back to its definition, e.g. to pick the failure detector).
PROFILES: dict[str, ChaosProfile] = {
    profile.name: profile
    for profile in (
        CORE_PROFILE,
        GENTLE_PROFILE,
        PARTITION_PROFILE,
        LEASE_PROFILE,
        CODED_PROFILE,
        SCALE_PROFILE,
        SKEW_PROFILE,
    )
}

#: Last instant any fault window may still be open.
FAULT_WINDOW_END = 1.0
#: Client timeout under the full menu: deliberately *below* the stall
#: horizon (fault windows run past 1.0s), so retries race operations
#: that are stalled — not lost — in cut, paused or slowed links.  A
#: retry landing at a server that has not seen the stalled pre-write
#: initiates the operation a second time; OpId dedup and the session
#: layer must keep that safe, and the chaos gate proves it.
AGGRESSIVE_CLIENT_TIMEOUT = 0.25
#: Post-fault settling time added to the deadline: enough for session
#: retransmission backoff (rto_max plus a round trip) and a few client
#: retries to finish every straggler after the last window closes.
SETTLE_TIME = 4.0
#: Shares a coded value needs: n = the cluster size must exceed it, or
#: no spare share is left to repair a lost fragment from.
CODED_K = 2


@dataclass(frozen=True)
class ChaosSchedule:
    """One fully-specified chaos run."""

    seed: int
    index: int
    profile: str
    num_servers: int
    cluster_seed: int
    writers: int
    readers: int
    ops_per_client: int
    value_size: int
    plan: FaultPlan = field(compare=False)
    config: ProtocolConfig = field(compare=False)
    #: Sharded runs: number of independent registers (1 = unsharded) and
    #: the number of client *machines* the logical clients multiplex
    #: over (0 = one machine per logical client, the unsharded layout).
    num_blocks: int = 1
    client_machines: int = 0
    deadline: float = 10.0
    #: Simulated time the workload is paced to span.  Without pacing a
    #: few dozen operations finish in single-digit milliseconds — before
    #: the first fault window even opens — so each client spreads its
    #: operations across this span to guarantee fault/operation overlap.
    workload_span: float = 0.0

    @property
    def num_clients(self) -> int:
        return self.writers + self.readers

    def describe(self) -> str:
        kinds = ",".join(sorted(self.plan.fault_kinds())) or "none"
        shard = f"blocks={self.num_blocks} " if self.num_blocks > 1 else ""
        return (
            f"[{self.profile}#{self.index}] servers={self.num_servers} {shard}"
            f"clients={self.writers}w+{self.readers}r ops={self.ops_per_client} "
            f"faults={kinds}"
        )


def generate_schedule(
    seed: int,
    index: int,
    num_servers: int = 4,
    profile: ChaosProfile = CORE_PROFILE,
) -> ChaosSchedule:
    """Draw one randomized schedule, deterministic in all arguments."""
    rng = random.Random(derive_seed(seed, f"chaos.{profile.name}.{index}"))
    if profile.elastic:
        # The ring layout fixes the cluster size: placement rings are
        # literal server ids, so a different num_servers would either
        # leave servers outside every ring or point rings at nothing.
        num_servers = max(sid for ring in profile.rings for sid in ring) + 1
    servers = [f"s{i}" for i in range(num_servers)]
    num_blocks = 1
    client_machines = 0
    if profile.sharded:
        # Benchmark scale: 8+ blocks, dozens of *logical* clients spread
        # over a few client machines, enough operations per client that
        # the total clears the profile's floor.  Writer and reader
        # counts start at the block count so round-robin assignment
        # gives every block at least one writer and one reader — no
        # block's history is checked vacuously.
        num_blocks = rng.randint(*profile.blocks)
        client_machines = rng.randint(3, 4)
        if profile.elastic:
            # Guaranteed extra clients beyond the per-block coverage
            # tail: the runner piles them onto blocks 0 and 1, and it is
            # that concentration (not the tail) that clears the
            # rebalancer's imbalance threshold on every draw.
            writers = rng.randint(num_blocks + 2, num_blocks + 6)
            readers = rng.randint(num_blocks + 6, num_blocks + 14)
        else:
            writers = rng.randint(num_blocks, num_blocks + 8)
            readers = rng.randint(num_blocks + 4, num_blocks + 16)
        total_clients = writers + readers
        ops_per_client = -(-profile.min_total_ops // total_clients) + rng.randint(0, 8)
        clients = [f"c{i}" for i in range(client_machines)]
    else:
        writers = rng.randint(2, 3)
        readers = rng.randint(2, 4)
        clients = [f"c{i}" for i in range(writers + readers)]
        ops_per_client = rng.randint(4, 8)

    plan = FaultPlan()
    num_crashes = min(rng.choice(profile.crash_weights), num_servers - 1)
    if profile.elastic:
        # Crash only destination-ring members, inside the window where
        # migrations run: the hot blocks start on ring 0, so transfers
        # target the last ring, and killing a member there mid-transfer
        # is what forces the abort path.  Every crash restarts — the
        # rebalancer refuses to start a migration toward a dead member,
        # so a permanent destination crash would make the required
        # migration gate unreachable by construction, not by bug.
        pool = [f"s{sid}" for sid in profile.rings[-1]]
        for victim in rng.sample(pool, min(num_crashes, len(pool))):
            at = round(rng.uniform(0.2, 0.9), 4)
            plan.crash(victim, at=at)
            plan.restart(victim, at=round(at + rng.uniform(0.5, 1.1), 4))
    elif profile.partition_heavy:
        # The heartbeat detector takes timeout + grace + a merge round
        # to install an exclusion, so recovery leaves a wider gap; and
        # only the first crash may be permanent under the quorum
        # discipline — a second never-restarted crash plus a partition
        # could durably destroy every ack quorum and stall the run by
        # design (wrong suspicion costs liveness, never safety).
        for ordinal, victim in enumerate(rng.sample(servers, num_crashes)):
            at = round(rng.uniform(0.05, 1.4), 4)
            plan.crash(victim, at=at)
            if ordinal > 0 or rng.random() < profile.p_restart:
                plan.restart(victim, at=round(at + rng.uniform(1.0, 1.6), 4))
    else:
        for victim in rng.sample(servers, num_crashes):
            plan.crash(victim, at=round(rng.uniform(0.05, 1.4), 4))
        # Crash recovery: each crashed server may come back and rejoin.
        # The gap past the crash leaves room for the detection delay and
        # the crash reconfiguration to finish, so the rejoin exercises
        # the steady-state recovery path (restart-into-a-reconfiguration
        # is covered separately by scheduling two crashes close together).
        for crash in list(plan.crashes):
            if rng.random() < profile.p_restart:
                plan.restart(
                    crash.process_name,
                    at=round(crash.time + rng.uniform(0.5, 1.1), 4),
                )

    def window(max_len: float) -> tuple[float, float]:
        start = rng.uniform(0.05, FAULT_WINDOW_END - 0.05)
        end = min(FAULT_WINDOW_END, start + rng.uniform(0.02, max_len))
        return round(start, 4), round(end, 4)

    def split_groups() -> list[list[str]]:
        if rng.random() < 0.7 or len(clients) == 0:
            # Ring partition: the servers split into two non-empty sides.
            cut = rng.randint(1, num_servers - 1)
            shuffled = rng.sample(servers, num_servers)
            return [shuffled[:cut], shuffled[cut:]]
        # Client-side partition: some servers unreachable by clients.
        cut = rng.randint(1, num_servers - 1)
        return [rng.sample(servers, cut), clients]

    if profile.partition_heavy and num_servers >= 2:
        # Guaranteed partition windows, sized past the heartbeat timeout
        # so suspicion demonstrably fires while the cut holds; hold and
        # drop modes both occur.  A possible second window starts after
        # the first heals (the validator rejects same-link overlap).
        at = round(rng.uniform(0.1, 0.5), 4)
        heal_at = round(at + rng.uniform(0.3, 0.6), 4)
        plan.partition(
            split_groups(), at=at, heal_at=heal_at,
            mode="hold" if rng.random() < 0.5 else "drop",
        )
        if rng.random() < 0.4:
            at2 = round(heal_at + rng.uniform(0.15, 0.35), 4)
            heal2 = round(at2 + rng.uniform(0.25, 0.45), 4)
            plan.partition(
                split_groups(), at=at2, heal_at=heal2,
                mode="hold" if rng.random() < 0.5 else "drop",
            )
    elif num_servers >= 2 and rng.random() < profile.p_partition:
        at, heal_at = window(0.3)
        if rng.random() < 0.5:
            # Ring partition: split the servers into two non-empty groups.
            cut = rng.randint(1, num_servers - 1)
            shuffled = rng.sample(servers, num_servers)
            plan.partition([shuffled[:cut], shuffled[cut:]], at=at, heal_at=heal_at)
        else:
            # Client-side partition: some servers unreachable by clients.
            cut = rng.randint(1, num_servers - 1)
            island = rng.sample(servers, cut)
            plan.partition([island, clients], at=at, heal_at=heal_at)

    # Probabilistic loss on any ring link — successor or not, crashes or
    # not.  The reliable session layer retransmits, so silent loss is a
    # transport-level event the protocol never observes; the historic
    # "no loss with crashes / successor links only" envelope is gone.
    # The draw is biased toward links that carry frames (successor data
    # links and their reverse ack links), because a drop rule on a link
    # no frame crosses exercises nothing — but any pair is schedulable.
    if num_servers >= 2 and rng.random() < profile.p_ring_loss:
        src = rng.choice(servers)
        roll = rng.random()
        if roll < 0.5:
            dst = f"s{(int(src[1:]) + 1) % num_servers}"  # data link
        elif roll < 0.75:
            dst = f"s{(int(src[1:]) - 1) % num_servers}"  # ack link
        else:
            dst = rng.choice([name for name in servers if name != src])
        at, until = window(0.5)
        plan.drop(src, dst, p=round(rng.uniform(0.05, 0.3), 3), at=at, until=until)

    if rng.random() < profile.p_client_loss:
        at, until = window(0.6)
        plan.drop(
            rng.choice(clients), rng.choice(servers),
            p=round(rng.uniform(0.1, 0.4), 3), at=at, until=until, symmetric=True,
        )

    if rng.random() < profile.p_duplicate:
        at, until = window(0.6)
        if num_servers >= 2 and rng.random() < 0.5:
            src = rng.choice(servers)
            dst = f"s{(int(src[1:]) + 1) % num_servers}"
        else:
            src, dst = rng.choice(clients), rng.choice(servers)
        plan.duplicate(src, dst, p=round(rng.uniform(0.2, 0.6), 3),
                       at=at, until=until, symmetric=True)

    if rng.random() < profile.p_delay:
        at, until = window(0.6)
        # Pick a link that actually carries traffic (ring successor or
        # client<->server); a delay between two clients would stretch a
        # link no frame ever crosses and count as coverage never fired.
        if num_servers >= 2 and rng.random() < 0.5:
            src = rng.choice(servers)
            dst = f"s{(int(src[1:]) + 1) % num_servers}"
        else:
            src, dst = rng.choice(clients), rng.choice(servers)
        plan.delay(src, dst, at=at, until=until,
                   extra=round(rng.uniform(0.0005, 0.003), 5),
                   jitter=round(rng.uniform(0.0, 0.002), 5), symmetric=True)

    if rng.random() < profile.p_throttle:
        at, until = window(0.5)
        plan.throttle(rng.choice(servers), factor=round(rng.uniform(2.0, 6.0), 2),
                      at=at, until=until)

    if rng.random() < profile.p_pause:
        at, _ = window(0.3)
        plan.pause(rng.choice(servers), at=at,
                   resume_at=round(at + rng.uniform(0.02, 0.12), 4))

    if profile.p_clock_skew > 0:
        # Absolute per-server clock offsets within the *declared* drift
        # bound (the assumption under which the lease arithmetic is
        # proved; beyond it the contract — not the code — is broken).
        # Skews land before or during the fault span so skewed clocks
        # age lease grants through partitions, suspicion and wait-outs.
        bound = HeartbeatConfig().clock_drift_bound
        for server in servers:
            if rng.random() < profile.p_clock_skew:
                magnitude = rng.uniform(0.2 * bound, bound)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                plan.clock_skew(server, offset=round(sign * magnitude, 5),
                                at=round(rng.uniform(0.0, 0.4), 4))

    horizon = plan.stall_horizon()
    if profile.retries:
        # The timeout is deliberately below the stall horizon: retries
        # race stalled operations, and the dedup machinery is on trial.
        config = ProtocolConfig(
            client_timeout=AGGRESSIVE_CLIENT_TIMEOUT,
            client_max_retries=40,
        )
    else:
        # Nothing in the gentle menu loses a frame, so every operation
        # completes without retries; an enormous timeout documents that.
        config = ProtocolConfig(client_timeout=1e9, client_max_retries=0)
    # Leases and coded values lean on epoch-guarded quorum installs; both
    # profiles run under the heartbeat detector, whose cluster builder
    # turns ``view_quorum`` on (``ProtocolConfig.for_detector``) before
    # validating.
    if profile.read_leases:
        config = replace(config, read_leases=True)
    if profile.value_coding == "coded":
        # k=CODED_K stripes, n = the cluster size: with quorum-installed
        # views every active view keeps n-f >= k fragment holders, so
        # reads stay reconstructable through any schedule the quorum
        # discipline itself survives (the config validates the bound).
        config = replace(
            config,
            value_coding="coded",
            coding_k=CODED_K,
            coding_n=num_servers,
        )

    last_crash = max((crash.time for crash in plan.crashes), default=0.0)
    span = max(horizon, last_crash) + 0.3
    deadline = span + SETTLE_TIME
    if profile.fd == "heartbeat":
        # Detection is no longer an oracle: every exclusion costs a
        # heartbeat timeout plus the propose grace, and a wrongly
        # suspected server re-enters through a sponsored merge after the
        # heal — give stragglers room to finish behind that churn.
        deadline += 1.5

    return ChaosSchedule(
        seed=seed,
        index=index,
        profile=profile.name,
        num_servers=num_servers,
        cluster_seed=derive_seed(seed, f"chaos.cluster.{profile.name}.{index}") % (2**31),
        writers=writers,
        readers=readers,
        ops_per_client=ops_per_client,
        # Scale runs push two orders of magnitude more operations
        # through the simulator; small values keep wire time (and wall
        # time) proportionate without changing the protocol surface.
        value_size=rng.choice((32, 128) if num_blocks > 1 else (32, 128, 512)),
        num_blocks=num_blocks,
        client_machines=client_machines,
        plan=plan,
        config=config,
        deadline=round(deadline, 4),
        workload_span=round(span, 4),
    )
