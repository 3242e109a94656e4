"""Central registry of trace counter names.

Every counter the simulator emits through :meth:`TraceRecorder.count`
has one constant here, and every consumer (the chaos gate's coverage
tables, the bench runner's wire accounting) refers to the same constant.
``tests/unit/test_counters_registry.py`` checks both directions on the
tallies of a fixed set of runs: every tallied name is registered, and
every constant a gate consumes is tallied — so renaming an emit site
can never again make a coverage gate vacuously pass (the PR 5 bug this
registry exists to prevent).

The constants' *values* are the wire format: they appear verbatim in
trace logs and in the committed BENCH_*.json snapshots, so the string
values below must never change silently.  Renaming a counter renames
its key in every snapshot and in every script that reads one; it is a
deliberate change to those files, made in the same commit.
"""

from __future__ import annotations

# -- process lifecycle (sim/process.py) --------------------------------
PROCESS_CRASHES = "process.crashes"
PROCESS_RESTARTS = "process.restarts"

# -- nemesis fault injection (sim/nemesis.py) --------------------------
NEMESIS_CUTS = "nemesis.cuts"
NEMESIS_CUT_DROPS = "nemesis.cut_drops"
NEMESIS_DELAYED = "nemesis.delayed"
NEMESIS_DROPS = "nemesis.drops"
NEMESIS_DUP_DELIVERIES = "nemesis.dup_deliveries"
NEMESIS_HEALS = "nemesis.heals"
NEMESIS_HELD = "nemesis.held"
NEMESIS_HELD_DELIVERED = "nemesis.held_delivered"
NEMESIS_PARTITIONS = "nemesis.partitions"
NEMESIS_PAUSES = "nemesis.pauses"
NEMESIS_POSTHUMOUS_DROPS = "nemesis.posthumous_drops"
NEMESIS_RULES = "nemesis.rules"
NEMESIS_THROTTLES = "nemesis.throttles"
NEMESIS_CLOCK_SKEWS = "nemesis.clock_skews"

# -- reliable session layer (runtime/sim_net.py) -----------------------
RELIABLE_ABANDONED = "reliable.abandoned"
RELIABLE_ACKS = "reliable.acks"
RELIABLE_BATCHED_FRAMES = "reliable.batched_frames"
RELIABLE_BATCHED_MESSAGES = "reliable.batched_messages"
RELIABLE_DUPS_SUPPRESSED = "reliable.dups_suppressed"
RELIABLE_RETRANSMITS = "reliable.retransmits"
RELIABLE_STALE_DROPPED = "reliable.stale_dropped"

# -- failure detectors (fd/perfect.py, runtime/sim_net.py) -------------
FD_DETECTIONS = "fd.detections"
FD_RECOVERIES = "fd.recoveries"
FD_SUSPICIONS = "fd.suspicions"
FD_UNSUSPECTS = "fd.unsuspects"
FD_WRONG_SUSPICIONS = "fd.wrong_suspicions"

# -- epoch-guarded reconfiguration (runtime/sim_net.py stat mirrors) ---
EPOCH_CONFIRMS = "epoch.confirms"
EPOCH_QUORUM_STALLS = "epoch.quorum_stalls"
EPOCH_REJECTED_RECONFIGS = "epoch.rejected_reconfigs"
EPOCH_STALE_DROPPED = "epoch.stale_dropped"

# -- epoch-scoped read leases (runtime/sim_net.py, runtime/asyncio_net.py)
LEASE_GRANTED = "lease.granted"
LEASE_RENEWED = "lease.renewed"
LEASE_REVOKED = "lease.revoked"
LEASE_EXPIRED = "lease.expired"
LEASE_LOCAL_READS = "lease.local_reads"
LEASE_FALLBACKS = "lease.fallbacks"
LEASE_WAITOUTS = "lease.waitouts"

# -- erasure-coded value backend (runtime/sim_net.py stat mirrors) -----
CODING_FRAGMENT_STORES = "coding.fragment_stores"
CODING_CACHE_READS = "coding.cache_reads"
CODING_RECONSTRUCTIONS = "coding.reconstructions"
CODING_REPAIRS = "coding.repairs"
CODING_PENDING_DROPPED = "coding.pending_dropped"

# -- ring traffic (runtime/sim_net.py) ---------------------------------
#: Ring-layer messages transmitted (PreWrite/Commit/fence/reconfig).
#: The bench runner divides by completed ops to record the ring
#: messages/op collapse the leased read path buys.
RING_MESSAGES = "ring.messages"

# -- elastic sharding: per-block load accounting (runtime/sharded.py) --
#: Client operations dispatched into block protocols (all blocks).
SHARD_BLOCK_OPS = "shard.block_ops"
#: Client payload bytes dispatched into block protocols.
SHARD_BLOCK_BYTES = "shard.block_bytes"
#: Integrated queue depth: sum over rebalancer samples of the pending +
#: write-queue entries across all blocks (a gauge surfaced as a counter
#: so traces and snapshots keep a single additive format).
SHARD_QUEUE_DEPTH = "shard.queue_depth"
#: PlacementRedirect replies sent to clients holding stale bindings.
SHARD_REDIRECTS = "shard.redirects"
#: Client envelopes parked at a source host while its block was frozen
#: for migration (replayed at cutover or abort).
SHARD_PARKED = "shard.parked"
#: Frames dropped for blocks not hosted here: ring traffic from a
#: superseded placement, or block transfers failing the nonce check.
SHARD_STALE_DROPPED = "shard.stale_dropped"

# -- elastic sharding: live block migration (runtime/sharded.py) -------
MIGRATION_STARTED = "migration.started"
MIGRATION_COMPLETED = "migration.completed"
MIGRATION_ABORTED = "migration.aborted"
#: Migrations decided by the split policy (evicting a hot block's
#: co-residents toward a dedicated placement).
MIGRATION_SPLITS = "migration.splits"
#: Snapshot bytes shipped by block transfers (wire-charged).
MIGRATION_BYTES = "migration.bytes"

#: Every fixed-name counter above: the module's upper-case constants
#: with a dotted value.
REGISTERED_COUNTERS = frozenset(
    value
    for name, value in globals().items()
    if name.isupper() and isinstance(value, str) and "." in value
)

# -- per-network scoped counters (sim/network.py) ----------------------
# Networks emit under a dynamic "<net_name>." prefix; consumers match by
# suffix (the bench runner sums ".wire_bytes" across all networks).

NET_COLLISIONS = "collisions"
NET_MULTICASTS = "multicasts"
NET_MULTICAST_DROPS = "multicast_drops"
NET_UNICASTS = "unicasts"
NET_WIRE_BYTES = "wire_bytes"

NET_KINDS = frozenset(
    {NET_COLLISIONS, NET_MULTICASTS, NET_MULTICAST_DROPS, NET_UNICASTS, NET_WIRE_BYTES}
)


def scoped(prefix: str, kind: str) -> str:
    """Counter name for a per-network statistic, e.g. ``lan0.wire_bytes``."""
    if kind not in NET_KINDS:
        raise ValueError(f"unknown scoped counter kind: {kind!r}")
    return f"{prefix}.{kind}"


def net_suffix(kind: str) -> str:
    """Suffix that matches every network's ``kind`` counter (consumers
    sum ``name.endswith(net_suffix(NET_WIRE_BYTES))`` across nets)."""
    if kind not in NET_KINDS:
        raise ValueError(f"unknown scoped counter kind: {kind!r}")
    return f".{kind}"
