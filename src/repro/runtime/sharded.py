"""Block store: many independent registers over one cluster — elastically.

The paper's introduction: "Distributed storage systems combine multiple
of these read/write objects, each storing its share of data, as building
blocks for a single large storage system."  :class:`BlockStore` is that
layer — ``num_blocks`` independent atomic registers, one
:class:`~repro.core.server.ServerProtocol` instance per block per server,
multiplexed over the same simulated machines and NICs.

Every ring and client-request message is wrapped in a
:class:`ShardEnvelope` carrying the block index; each server's ring link
round-robins across the blocks' protocol instances, so blocks share the
wire fairly.  Because blocks are independent registers, per-block
operations retain the single-register atomicity guarantees.

A :class:`ShardedServerHost` *is* a
:class:`~repro.runtime.sim_net.ServerHost`: NIC wiring, the restart
skeleton, the crash-recovery and sponsor rules and the control-plane
driver (:mod:`repro.runtime.driver` — one per host incarnation, serving
every block) are inherited, so the sharded hosts participate fully in
the cluster's fault machinery without re-typing any of it.  Each block's
protocol persists a durable snapshot, a crashed server restarts from
the per-block stores and one rejoin pump folds every block back into
its ring, and under ``fd="heartbeat"`` every block runs the
epoch-guarded quorum-installed view discipline behind one server-level
detector — suspicion, stale-epoch fencing and reconfiguration tokens
all travel in :class:`ShardEnvelope`\\ s like any other ring traffic.

Every host places blocks by a versioned
:class:`~repro.core.placement.PlacementTable` over fixed disjoint
*rings* of servers.  A static store's table is one ring of every server
hosting every block; an elastic store (``rings`` given) has several, and
adds the control plane a skewed workload needs:

* hosts consult the table — a request for a block not placed here gets
  a :class:`~repro.core.placement.PlacementRedirect` instead of silent
  service, and ring frames for un-hosted blocks are dropped and counted;
* a :class:`Rebalancer` samples per-block load, runs the pure
  :func:`~repro.core.placement.plan_rebalance` policy, and executes live
  migrations: freeze client traffic for the block, drain the source ring
  to quiescence, ship one epoch-stamped snapshot to every destination
  member (nonce-guarded against duplicates and aborted attempts), then
  cut the placement over and redirect the parked clients;
* :class:`ShardClientHost` caches per-block placement entries and
  chases redirects (version-guarded, budget-bounded) so a stale binding
  heals in one round trip instead of timing out.

Elastic clusters require the perfect failure detector and replicated
values: within a ring, crash recovery is the existing epoch machinery;
*between* rings, the only state transfer is the drained-snapshot
handoff, which the destination adopts with
:meth:`~repro.core.server.ServerProtocol.from_transfer`.  Any
destination-member crash, loss of the last source copy, or timeout
aborts the attempt — the table is only mutated *after* every
destination member holds the state, so aborting is always safe and
clients never observe two serving placements.  See docs/sharding.md
for the full protocol and the linearizability argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.config import ProtocolConfig
from repro.core.durable import MemorySnapshotStore
from repro.core.messages import OpId, payload_size
from repro.core.placement import (
    PLACEMENT_STALE_REASON,
    BlockTransfer,
    MigrationPlan,
    PlacementRedirect,
    PlacementTable,
    plan_rebalance,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.errors import (
    ConfigurationError,
    PlacementStaleError,
    StorageUnavailableError,
)
from repro.runtime.interface import Reply
from repro.runtime.sim_net import ClientHost, ServerHost, SimCluster
from repro.sim.counters import (
    MIGRATION_ABORTED,
    MIGRATION_BYTES,
    MIGRATION_COMPLETED,
    MIGRATION_SPLITS,
    MIGRATION_STARTED,
    SHARD_BLOCK_BYTES,
    SHARD_BLOCK_OPS,
    SHARD_PARKED,
    SHARD_QUEUE_DEPTH,
    SHARD_REDIRECTS,
    SHARD_STALE_DROPPED,
)

#: Redirect chases a client grants one operation before giving up with
#: :data:`PLACEMENT_STALE_REASON`.  Each chase is one placement hop; a
#: healthy system needs exactly one per migration that raced the
#: operation, so exhausting eight means the client's view of the table
#: cannot converge (e.g. the table points at hosts that no longer serve
#: the block) and failing fast beats retrying forever.
REDIRECT_BUDGET = 8

#: Cadence of the migration drain poll — well under a ring round trip,
#: so a drained source is noticed promptly without busy-spinning the
#: scheduler.
_DRAIN_POLL = 0.002


@dataclass(frozen=True)
class ShardEnvelope:
    """Wraps a protocol message with its block index."""

    reg: int
    inner: Any

    def payload_bytes(self) -> int:
        return 4 + payload_size(self.inner)


class ShardedServerHost(ServerHost):
    """One machine hosting a register protocol instance per block.

    A :class:`~repro.runtime.sim_net.ServerHost` — same NICs, same
    control-plane driver, same restart skeleton and recovery rules —
    that adds what sharding needs: block envelopes, a placement check on
    every inbound frame, per-block stores and load tallies.  The host
    builds protocol instances only for the blocks its ``placement``
    puts on its ring, answers requests for anything else with a
    placement redirect, and lets the rebalancer install and evict blocks
    live.  Without a ``placement`` it holds a static one: one ring of
    every server, hosting every block.
    """

    def __init__(
        self,
        cluster: SimCluster,
        server_id: int,
        num_blocks: int,
        placement: Optional[PlacementTable] = None,
    ):
        super().__init__(cluster, server_id, None)
        self._placement = placement or PlacementTable.initial(
            num_blocks, [tuple(range(cluster.config.num_servers))]
        )
        hosted = self._placement.blocks_of(server_id)
        #: Per-block durable snapshot stores — this machine's "disk".
        #: They live on the host (not the protocols) because the host
        #: object models the machine across crash/restart cycles: the
        #: protocol instances are volatile and rebuilt by :meth:`restart`,
        #: the stores survive.
        self._stores: dict[int, MemorySnapshotStore] = {
            reg: MemorySnapshotStore() for reg in hosted
        }
        self.protos: dict[int, ServerProtocol] = {
            reg: ServerProtocol(
                server_id,
                RingView(self._placement.servers_of(reg), frozenset(), 0),
                cluster.config.protocol,
                initial_value=cluster.config.initial_value,
                durable=self._stores[reg],
            )
            for reg in hosted
        }
        #: ``DriverHost.hosted``: a live view of the block map, current
        #: through every install, drop and restart.
        self.hosted = self.protos.values()
        #: Cumulative per-block client-op and byte tallies, read as
        #: deltas by the rebalancer's sampling tick.  Never reset — not
        #: even across restarts — so the deltas stay non-negative.
        self.block_ops: dict[int, int] = {}
        self.block_bytes: dict[int, int] = {}
        self._ring_rr = 0
        #: One FIFO for every client machine (the unsharded host's
        #: per-machine round-robin would reorder seeded block traces).
        self._reply_queue: deque = deque()

    def registers(self) -> dict[int, ServerProtocol]:
        return self.protos

    # -- inbound ------------------------------------------------------

    def receive_ring(self, envelope: ShardEnvelope, sender=None) -> None:
        if not self.alive:
            return
        proto = self.protos.get(envelope.reg)
        if proto is None:
            # Ring traffic for a block this host does not serve: a frame
            # from a superseded placement that survived in the fabric,
            # or a rejoin announcement round-robined to a sponsor
            # outside the block's ring.  There is no instance to mutate;
            # it dies here, counted.
            self.env.trace.count(SHARD_STALE_DROPPED)
            return
        self.post(proto.on_ring_message(envelope.inner, sender))
        cluster = self.cluster
        if cluster.hb is not None:
            cluster.after_protocol_step(self)

    def receive_client(self, client_id: int, envelope: ShardEnvelope) -> None:
        if not self.alive:
            return
        reg = envelope.reg
        proto = self.protos.get(reg)
        if proto is None:
            if reg in self._placement.blocks:
                # The client's binding is stale: answer with the
                # authoritative placement entry instead of serving (or
                # silently dropping) the mis-routed request.
                self._redirect(client_id, envelope)
            else:
                # No ring holds such a block: nothing to redirect to.
                self.env.trace.count(SHARD_STALE_DROPPED)
            return
        rebalancer = self.cluster.rebalancer
        if rebalancer is not None and rebalancer.frozen(reg):
            # The block is mid-migration: park the request with the
            # control plane.  At cutover the client is redirected to the
            # new ring; on abort the request is re-delivered here.
            rebalancer.park(self.server_id, client_id, envelope)
            return
        self.block_ops[reg] = self.block_ops.get(reg, 0) + 1
        request_bytes = payload_size(envelope.inner)
        self.block_bytes[reg] = self.block_bytes.get(reg, 0) + request_bytes
        self.env.trace.count(SHARD_BLOCK_OPS)
        self.env.trace.count(SHARD_BLOCK_BYTES, request_bytes)
        self.post(proto.on_client_message(client_id, envelope.inner))
        # Leased reads complete with zero ring traffic; without this the
        # lease stat mirror would wait for a ring receipt that may never
        # come (see ServerHost.receive_client).
        cluster = self.cluster
        if cluster.hb is not None:
            cluster.after_protocol_step(self)

    def _redirect(self, client_id: int, envelope: ShardEnvelope) -> None:
        """Reply with the authoritative placement entry for the block
        (rides the normal reply path, so it is wire-charged and races
        real replies honestly)."""
        version, servers = self._placement.entry(envelope.reg)
        redirect = PlacementRedirect(
            op=envelope.inner.op, block=envelope.reg, version=version, servers=servers
        )
        self.env.trace.count(SHARD_REDIRECTS)
        self.post([Reply(client_id, redirect)])

    # -- elastic placement hooks (rebalancer-driven) -------------------

    def install_block(self, reg: int, proto: ServerProtocol, store) -> None:
        """Adopt a migrated block at cutover: the staged protocol (built
        by :meth:`ServerProtocol.from_transfer`) starts serving and its
        store becomes part of this machine's disk."""
        self._stores[reg] = store
        self.protos[reg] = proto
        self.kick()

    def drop_block(self, reg: int) -> None:
        """Evict a block this host no longer serves — protocol *and*
        store: keeping the superseded snapshot would let a later restart
        resurrect a stale copy of a block that lives elsewhere now.
        Safe on dead hosts (the rebalancer sweeps source members whether
        or not they are up)."""
        self.protos.pop(reg, None)
        self._stores.pop(reg, None)

    def queue_depth(self) -> int:
        """Instantaneous backlog across hosted blocks (pending writes
        plus queued client writes), sampled by the rebalancer."""
        return sum(
            len(proto.pending) + len(proto.write_queue)
            for proto in self.protos.values()
        )

    # -- restart (crash recovery) --------------------------------------

    def _restore_protos(self) -> None:
        """Rebuild every block's protocol from its snapshot store; one
        driver then pumps the rejoin of every still-rejoining block.

        The hosted set is recomputed from the *current* table: blocks
        migrated away while this server was down are dropped (their
        local snapshots belong to a superseded placement), and per-block
        aloneness is judged against the block's own ring.
        """
        self._reply_queue.clear()
        self._ring_rr = 0
        hosted = self._placement.blocks_of(self.server_id)
        for reg in sorted(set(self._stores) - set(hosted)):
            del self._stores[reg]
            self.env.trace.count(SHARD_STALE_DROPPED)
        self.protos.clear()  # the same map: ``hosted`` stays its view
        for reg in hosted:
            store = self._stores.setdefault(reg, MemorySnapshotStore())
            members = self._placement.servers_of(reg)
            self.protos[reg] = self._restore(
                store, members, self._resumes_alone(reg, members)
            )

    # -- outbound -------------------------------------------------------

    def _ring_source(self):
        """Round-robin the ring link across blocks with pending work,
        each block's slot pulled exactly as the unsharded host pulls its
        one protocol (directed traffic first, then a batch within the
        block — blocks hold independent ring views, so a cross-block
        frame could mix destinations).

        The hosted set is no longer contiguous once blocks migrate, so
        the round-robin walks the *sorted keys* of ``protos`` — it is
        the slot index, not the block index, that advances.
        """
        keys = sorted(self.protos)
        slots = len(keys)
        for offset in range(slots):
            index = (self._ring_rr + offset) % slots
            reg = keys[index]
            pulled = self._pull_ring(self.protos[reg])
            if pulled is None:
                continue
            self._ring_rr = (index + 1) % slots
            destination, payload, kind = pulled
            if isinstance(payload, list):
                payload = [ShardEnvelope(reg, message) for message in payload]
            else:
                payload = ShardEnvelope(reg, payload)
            return (destination, payload, kind)
        return None

    def _reply_source(self):
        # Iterative on purpose: a burst of replies addressed to departed
        # clients must be skipped in a loop — one recursive call per
        # stale entry blew the stack on large backlogs.
        while self._reply_queue:
            reply = self._reply_queue.popleft()
            machine = self.cluster.client_name(reply.client)
            if machine is not None:
                return (machine, reply.message, "reply")
        return None

    def post(self, replies) -> None:
        self._reply_queue.extend(replies)
        self.kick()


@dataclass
class _Migration:
    """State of the single in-flight migration attempt."""

    plan: MigrationPlan
    nonce: int
    #: Placement version the block carries once cutover commits.
    version: int
    started: float
    #: Client envelopes parked at source members while the block is
    #: frozen: ``(server_id, client_id, envelope)``.
    parked: list = field(default_factory=list)
    #: Destination member -> staged ``(protocol, store)``, installed
    #: only at cutover.  Staged state is volatile: an abort discards it
    #: and a destination crash loses it implicitly.
    staged: dict = field(default_factory=dict)


class Rebalancer:
    """Elastic control plane: samples load, plans and executes migrations.

    One migration runs at a time.  The protocol, in order:

    1. **Freeze** — :meth:`frozen` makes source hosts park new client
       requests for the block (ring traffic keeps flowing: in-flight
       writes must finish).  The freeze lives *here*, not on the hosts,
       so a source-host restart mid-migration cannot silently unfreeze.
    2. **Drain** — poll until every alive source member's instance is
       :meth:`~repro.core.server.ServerProtocol.quiescent`.
    3. **Transfer** — snapshot the max-tag alive source member and ship
       one :class:`BlockTransfer` per destination member through the
       nemesis-routed fabric (wire-charged; duplicates and post-abort
       stragglers fail the nonce check and are dropped).
    4. **Stage** — each arriving transfer builds the destination's
       instance via :meth:`ServerProtocol.from_transfer`, *not yet
       serving*.
    5. **Cutover** — once every destination member is staged: mutate the
       placement table, install the staged instances, drop the block
       from every source member (store included), redirect the parked
       clients to the new ring.

    A destination-member crash, loss of the last source copy, or the
    attempt timeout **aborts**: staged state is discarded, the block
    unfreezes and parked requests are re-delivered — the table was never
    touched, so the source ring simply resumes serving.

    The sampling tick also emits the ``shard.queue_depth`` gauge, and
    stops rescheduling itself past ``horizon`` so a finished simulation
    can go idle (an in-flight migration still runs to completion or
    abort).
    """

    def __init__(
        self,
        cluster: SimCluster,
        placement: PlacementTable,
        *,
        interval: float = 0.05,
        first_delay: Optional[float] = None,
        horizon: float = 30.0,
        migration_timeout: float = 0.5,
        imbalance: float = 2.0,
        min_load: float = 1.0,
        split_fraction: float = 0.5,
    ):
        if interval <= 0:
            raise ConfigurationError("rebalancer interval must be > 0")
        if migration_timeout <= 0:
            raise ConfigurationError("migration_timeout must be > 0")
        self.cluster = cluster
        self.env = cluster.env
        self.placement = placement
        self.interval = interval
        self.horizon = horizon
        self.migration_timeout = migration_timeout
        self.imbalance = imbalance
        self.min_load = min_load
        self.split_fraction = split_fraction
        #: Migration outcome tallies (tests and the bench record read
        #: these; the trace counters are the cross-run evidence).
        self.completed = 0
        self.aborted = 0
        self.splits = 0
        self._active: Optional[_Migration] = None
        self._nonce = 0
        #: Last-sampled cumulative per-block op totals, for load deltas.
        self._sampled: dict[int, int] = {}
        for host in cluster.servers.values():
            host.on_crash(self._on_server_crash)
        self.env.scheduler.schedule(
            interval if first_delay is None else first_delay, self._tick
        )

    # -- host-facing queries -------------------------------------------

    def frozen(self, reg: int) -> bool:
        """Whether client traffic for ``reg`` must park (mid-migration)."""
        return self._active is not None and self._active.plan.block == reg

    def park(self, server_id: int, client_id: int, envelope: ShardEnvelope) -> None:
        self._active.parked.append((server_id, client_id, envelope))
        self.env.trace.count(SHARD_PARKED)

    # -- sampling tick --------------------------------------------------

    def _tick(self) -> None:
        if self._active is None:
            loads = self._sample()
            depth = sum(
                host.queue_depth()
                for _sid, host in sorted(self.cluster.servers.items())
                if host.alive
            )
            if depth:
                self.env.trace.count(SHARD_QUEUE_DEPTH, depth)
            plan = plan_rebalance(
                loads,
                self.placement,
                imbalance=self.imbalance,
                min_load=self.min_load,
                split_fraction=self.split_fraction,
            )
            if plan is not None:
                self._start(plan)
        if self.env.now < self.horizon:
            self.env.scheduler.schedule(self.interval, self._tick)

    def _sample(self) -> dict[int, float]:
        """Per-block load since the last sample: delta of the hosts'
        cumulative op counts (dead hosts included — their totals are
        frozen, not lost, so deltas stay non-negative)."""
        totals: dict[int, int] = {}
        for _sid, host in sorted(self.cluster.servers.items()):
            for reg, ops in host.block_ops.items():
                totals[reg] = totals.get(reg, 0) + ops
        loads: dict[int, float] = {}
        for reg in sorted(self.placement.blocks):
            cumulative = totals.get(reg, 0)
            loads[reg] = float(cumulative - self._sampled.get(reg, 0))
            self._sampled[reg] = cumulative
        return loads

    # -- migration state machine ---------------------------------------

    def _start(self, plan: MigrationPlan) -> None:
        servers = self.cluster.servers
        if not all(servers[sid].alive for sid in self.placement.rings[plan.dest]):
            # Migrating onto a ring with a dead member would abort the
            # moment the crash listener looked; don't start.
            return
        if not any(servers[sid].alive for sid in self.placement.rings[plan.source]):
            return  # nobody to drain or snapshot
        self._nonce += 1
        self._active = _Migration(
            plan=plan,
            nonce=self._nonce,
            version=self.placement.versions[plan.block] + 1,
            started=self.env.now,
        )
        self.env.trace.count(MIGRATION_STARTED)
        if plan.split:
            self.splits += 1
            self.env.trace.count(MIGRATION_SPLITS)
        self.env.scheduler.schedule(self.migration_timeout, self._expire, self._nonce)
        self._poll_drain(self._nonce)

    def _expire(self, nonce: int) -> None:
        if self._active is not None and self._active.nonce == nonce:
            self._abort()

    def _poll_drain(self, nonce: int) -> None:
        active = self._active
        if active is None or active.nonce != nonce:
            return
        block = active.plan.block
        holders: list[tuple] = []
        for sid in self.placement.rings[active.plan.source]:
            host = self.cluster.servers[sid]
            if not host.alive:
                continue
            proto = host.protos.get(block)
            if proto is None:
                continue
            if not proto.quiescent():
                # Still in flight (or rejoining): check again shortly;
                # the attempt timeout bounds how long we wait.
                self.env.scheduler.schedule(_DRAIN_POLL, self._poll_drain, nonce)
                return
            holders.append((proto.tag, -sid, proto))
        if not holders:
            self._abort()
            return
        # Max tag wins; ties break toward the lowest server id.  Every
        # quiescent member has an empty pending set, so the max-tag copy
        # is the complete committed state.
        _tag, _key, source_proto = max(holders)
        self._transfer(source_proto)

    def _transfer(self, proto: ServerProtocol) -> None:
        active = self._active
        snapshot = proto.snapshot()
        source_name = f"s{proto.server_id}"
        for dst in self.placement.rings[active.plan.dest]:
            transfer = BlockTransfer(
                block=active.plan.block,
                nonce=active.nonce,
                source=proto.server_id,
                snapshot=snapshot,
                version=active.version,
            )
            size = transfer.payload_bytes()
            self.env.trace.count(MIGRATION_BYTES, size)
            src_nic, dst_nic, network = self.cluster.topo.nic_for(
                source_name, f"s{dst}"
            )
            network.unicast(
                src_nic,
                dst_nic,
                size,
                transfer,
                lambda message, dst=dst: self._on_transfer(dst, message),
            )

    def _on_transfer(self, dst: int, transfer: BlockTransfer) -> None:
        active = self._active
        if (
            active is None
            or transfer.nonce != active.nonce
            or transfer.block != active.plan.block
        ):
            # A straggler from an aborted attempt, or a nemesis
            # duplicate that outlived its migration: never installed.
            self.env.trace.count(SHARD_STALE_DROPPED)
            return
        if dst in active.staged:
            self.env.trace.count(SHARD_STALE_DROPPED)  # nemesis duplicate
            return
        host = self.cluster.servers[dst]
        if not host.alive:
            return  # the crash listener is aborting this attempt
        store = MemorySnapshotStore()
        staged = ServerProtocol.from_transfer(
            dst,
            self.placement.rings[active.plan.dest],
            transfer.snapshot,
            self.cluster.config.protocol,
            durable=store,
            initial_value=self.cluster.config.initial_value,
            generation=host.restarts,
        )
        active.staged[dst] = (staged, store)
        if len(active.staged) == len(self.placement.rings[active.plan.dest]):
            self._cutover()

    def _cutover(self) -> None:
        active = self._active
        plan = active.plan
        # Order matters: the table moves first, so the redirects below
        # (and any request racing them) read the new entry; the source
        # members drop the block before any redirected request could
        # land on one and be mis-served.
        self.placement.move(plan.block, plan.dest)
        for sid in self.placement.rings[plan.source]:
            self.cluster.servers[sid].drop_block(plan.block)
        for dst in sorted(active.staged):
            staged, store = active.staged[dst]
            self.cluster.servers[dst].install_block(plan.block, staged, store)
        self._active = None
        self.completed += 1
        self.env.trace.count(MIGRATION_COMPLETED)
        for server_id, client_id, envelope in active.parked:
            host = self.cluster.servers.get(server_id)
            if host is not None and host.alive:
                host._redirect(client_id, envelope)

    def _abort(self) -> None:
        active = self._active
        if active is None:
            return
        # Staged instances and their stores are volatile — dropping the
        # reference is the whole cleanup.  The placement table was never
        # touched, so the source ring resumes serving as if the attempt
        # never happened.
        self._active = None
        self.aborted += 1
        self.env.trace.count(MIGRATION_ABORTED)
        for server_id, client_id, envelope in active.parked:
            host = self.cluster.servers.get(server_id)
            if host is not None and host.alive:
                host.receive_client(client_id, envelope)

    def _on_server_crash(self, process) -> None:
        active = self._active
        if active is None:
            return
        sid = int(process.name[1:])
        if sid in self.placement.rings[active.plan.dest]:
            # A destination member died: its staged copy (volatile) is
            # gone, so the destination ring can never fully stage.
            self._abort()
            return
        source = self.placement.rings[active.plan.source]
        if sid in source and not any(
            self.cluster.servers[m].alive for m in source
        ):
            self._abort()  # the last source copy is gone


class ShardClientHost(ClientHost):
    """A client machine whose logical clients target a block per op.

    The block index is pinned per logical client when its operation
    starts (:meth:`_bind_block`; each has one in flight), so a timeout
    retransmit re-wraps with the originating operation's block even if
    this machine has since issued operations against other blocks.
    (The original implementation kept one machine-wide "current block"
    read again at retransmit time, which routed a delayed retry into
    whatever block a concurrent logical client had switched to —
    corrupting a neighbouring register; see the regression test in
    ``tests/integration/test_sharded.py``.)

    On an elastic cluster the host additionally keeps a per-block
    placement cache: requests route onto the cached ring's members (so
    retries walk the *block's* ring, not the whole cluster), and a
    :class:`PlacementRedirect` updates the cache — only forward, by
    version — and reissues the in-flight request.  A redirect chase
    past :data:`REDIRECT_BUDGET` fails the operation with
    :data:`PLACEMENT_STALE_REASON`.
    """

    def __init__(self, cluster, client_id, servers, config):
        super().__init__(cluster, client_id, servers, config)
        #: Block of the operation starting now: set by
        #: ``write_block``/``read_block`` around the start, 0 otherwise.
        self._next_block = 0
        #: Per logical client, its operation's block and the redirects
        #: that operation has chased.
        self._blocks: dict[int, int] = {}
        self._redirects: dict[int, int] = {}
        #: Block -> cached ``(version, members)`` placement entry.
        #: Seeded from the table at first touch, then moved only forward
        #: by redirects carrying a strictly newer version.
        self._placement_cache: dict[int, tuple[int, tuple[int, ...]]] = {}

    def write_block(
        self, reg: int, value: bytes, callback: Callable, client_id: Optional[int] = None
    ):
        return self._on_block(reg, self.write, value, callback, client_id=client_id)

    def read_block(self, reg: int, callback: Callable, client_id: Optional[int] = None):
        return self._on_block(reg, self.read, callback, client_id=client_id)

    def _on_block(self, reg: int, start: Callable, *args, **kwargs):
        """``start(*args, **kwargs)`` an operation on block ``reg``."""
        self._next_block = self._placed(reg)
        try:
            return start(*args, **kwargs)
        finally:
            self._next_block = 0

    def _placed(self, reg: int) -> int:
        """``reg``, if some ring holds it.  Every server host keeps the
        whole block table (the shared elastic one or its static copy),
        so any host can answer; a block none holds would only be
        dropped by every server until the retries ran out."""
        host = next(iter(self.cluster.servers.values()))
        if reg not in host._placement.blocks:
            raise ConfigurationError(f"block {reg} is held by no ring")
        return reg

    def _bind_block(self, op: OpId) -> int:
        reg = self._blocks[op.client] = self._next_block
        self._redirects[op.client] = 0
        return reg

    # -- elastic placement routing -------------------------------------

    def _request(self, server: int, message):
        """The request in its block's envelope, to ``server`` — or, on an
        elastic cluster, to the member of the block's cached ring at the
        same position."""
        reg = self._blocks[message.op.client]
        envelope = ShardEnvelope(reg, message)
        placement = self.cluster.placement
        if placement is None:
            return f"s{server}", envelope
        entry = self._placement_cache.get(reg)
        if entry is None:
            # First touch: consult the placement service once.  From
            # here this machine's view of the block ages until a
            # redirect refreshes it — which is what makes the redirect
            # path real rather than decorative.
            entry = placement.entry(reg)
            self._placement_cache[reg] = entry
        _version, members = entry
        # The protocol walks its full server list on retries; fold that
        # walk onto the block's ring so every retry lands on a member.
        position = self.servers.index(server)
        return f"s{members[position % len(members)]}", envelope

    def on_reply_delivered(self, message) -> None:
        if isinstance(message, PlacementRedirect):
            self._on_redirect(message)
            return
        super().on_reply_delivered(message)

    def _on_redirect(self, message: PlacementRedirect) -> None:
        if not self.alive:
            return
        proto = self.protos.get(message.op.client)
        if proto is None or proto.outstanding != message.op:
            return  # redirect for a superseded operation; ignore
        cached = self._placement_cache.get(message.block)
        if cached is None or message.version > cached[0]:
            # Version-guarded: a redirect that raced an even later
            # migration must not roll the cache backwards.
            self._placement_cache[message.block] = (
                message.version,
                tuple(message.servers),
            )
        self._redirects[proto.client_id] += 1
        if self._redirects[proto.client_id] > REDIRECT_BUDGET:
            self._execute(proto, proto.fail_current(PLACEMENT_STALE_REASON))
            return
        self._execute(proto, proto.reissue())


def add_shard_client(
    cluster: SimCluster, home_server: Optional[int] = None
) -> ShardClientHost:
    """Attach a new sharded client machine to the client network.

    :meth:`SimCluster.add_client` with a :class:`ShardClientHost`;
    ``home_server`` binds the machine to a server and retries walk the
    ring from there.
    """
    return cluster.add_client(home_server=home_server, host_cls=ShardClientHost)


def build_elastic_cluster(
    num_servers: int,
    num_blocks: int,
    rings: list,
    seed: int = 0,
    *,
    pack: bool = False,
    rebalance: bool = True,
    rebalance_interval: float = 0.05,
    rebalance_first_delay: Optional[float] = None,
    horizon: float = 30.0,
    migration_timeout: float = 0.5,
    imbalance: float = 2.0,
    min_load: float = 1.0,
    split_fraction: float = 0.5,
    **kwargs,
) -> SimCluster:
    """Build a sharded cluster with explicit placement over ``rings``.

    ``rings`` is a list of disjoint member tuples (e.g. ``[(0, 1),
    (2, 3)]``); blocks start spread contiguously across them, or all on
    ring 0 with ``pack=True`` (the "capacity added, nothing moved yet"
    starting point the elastic benchmark measures against).  With
    ``rebalance`` a :class:`Rebalancer` is attached and live migration
    runs; without it the placement is static but still explicit —
    clients route by the table and stale bindings still redirect.

    Elastic clusters are perfect-detector, replicated-value only (the
    ``elastic`` row of :meth:`ProtocolConfig.for_detector`): the
    heartbeat detector's epoch machinery manages membership *within* a
    ring and is untouched, but the cross-ring snapshot handoff assumes
    crash facts, and erasure coding pins ``coding_n`` to the whole
    cluster size, which per-ring views break.
    """
    if num_blocks < 1:
        raise ConfigurationError("num_blocks must be >= 1")
    if len(rings) < 2:
        raise ConfigurationError(
            "an elastic cluster needs at least two rings to move blocks between"
        )
    members = [sid for ring in rings for sid in ring]
    if any(sid < 0 or sid >= num_servers for sid in members):
        raise ConfigurationError(
            f"ring members must be in [0, {num_servers}); got {sorted(members)}"
        )
    # Checked for its raise only; ``SimCluster.build`` derives the config
    # it keeps from the same rule.
    (kwargs.get("protocol") or ProtocolConfig()).for_detector(
        kwargs.get("fd", "perfect"), elastic=True
    )
    placement = PlacementTable.initial(num_blocks, rings, pack=pack)

    def factory(cluster: SimCluster, server_id: int) -> ShardedServerHost:
        return ShardedServerHost(cluster, server_id, num_blocks, placement=placement)

    cluster = SimCluster.build(
        num_servers=num_servers, seed=seed, host_factory=factory, **kwargs
    )
    cluster.placement = placement
    if rebalance:
        cluster.rebalancer = Rebalancer(
            cluster,
            placement,
            interval=rebalance_interval,
            first_delay=rebalance_first_delay,
            horizon=horizon,
            migration_timeout=migration_timeout,
            imbalance=imbalance,
            min_load=min_load,
            split_fraction=split_fraction,
        )
    return cluster


class BlockStore:
    """Synchronous facade over a sharded cluster.

    Example::

        store = BlockStore.build(num_servers=4, num_blocks=16)
        store.write_block(3, b"block three")
        assert store.read_block(3) == b"block three"

    With ``rings`` the store is elastic: blocks are placed by an
    explicit table and (with ``rebalance``) migrate between rings under
    load.  A client that cannot converge on a block's placement raises
    :class:`~repro.errors.PlacementStaleError`.
    """

    def __init__(self, cluster: SimCluster, num_blocks: int):
        self.cluster = cluster
        self.num_blocks = num_blocks
        self._client = add_shard_client(cluster)

    @classmethod
    def build(
        cls,
        num_servers: int,
        num_blocks: int,
        seed: int = 0,
        rings: Optional[list] = None,
        rebalance: bool = True,
        **kwargs,
    ) -> "BlockStore":
        if num_blocks < 1:
            raise ConfigurationError("num_blocks must be >= 1")
        if rings is not None:
            cluster = build_elastic_cluster(
                num_servers, num_blocks, rings, seed=seed, rebalance=rebalance, **kwargs
            )
            return cls(cluster, num_blocks)

        def factory(cluster: SimCluster, server_id: int) -> ShardedServerHost:
            return ShardedServerHost(cluster, server_id, num_blocks)

        cluster = SimCluster.build(
            num_servers=num_servers, seed=seed, host_factory=factory, **kwargs
        )
        return cls(cluster, num_blocks)

    def write_block(self, index: int, data: bytes) -> None:
        """Write one block; linearizable per block."""
        result = self._client.run_op(self._client.write_block, index, data)
        if not result.ok:
            self._fail(f"write_block({index})", result.error)

    def read_block(self, index: int) -> bytes:
        """Read one block; linearizable per block."""
        result = self._client.run_op(self._client.read_block, index)
        if not result.ok:
            self._fail(f"read_block({index})", result.error)
        return result.value

    @staticmethod
    def _fail(context: str, error: Optional[str]) -> None:
        if error == PLACEMENT_STALE_REASON:
            raise PlacementStaleError(f"{context}: {error}")
        raise StorageUnavailableError(f"{context}: {error}")
