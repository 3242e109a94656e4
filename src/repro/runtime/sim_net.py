"""Cluster runtime: protocol state machines over the discrete-event simulator.

A :class:`SimCluster` hosts the ring servers and any number of clients on
a simulated network (dual-network or shared, per the paper's testbed), and
wires up:

* one *out-loop* per NIC, which pulls at most one frame at a time —
  ring frames via :meth:`ServerProtocol.next_ring_batch` (the paper's
  ``queue handler``, up to :func:`~repro.runtime.interface.ring_batch_depth`
  messages per frame) and client replies from a reply queue — so the
  NIC's transmit port is the only scheduler of outgoing traffic, exactly
  as in the paper's performance model;
* the perfect failure detector: a server crash is delivered to every
  surviving server after a fixed detection delay (the simulator's stand-in
  for a broken TCP connection in a synchronous cluster);
* crash fidelity: a crashing server's queued-but-untransmitted messages
  die with it, while messages already on the wire are delivered (TCP
  semantics);
* the reliable session layer (:mod:`repro.transport.reliable`): every
  unicast between hosts rides in a sequence-numbered segment, acks
  piggyback on reverse traffic, lost frames are retransmitted on a
  backoff timer and duplicates/reorders are suppressed at the receiver.
  The paper's "reliable FIFO channels between correct processes" is
  thereby *implemented* machinery the nemesis can attack (drop ring
  frames, even alongside crashes) instead of an oracle the chaos
  generator had to schedule around.  Sessions to a crashed peer are
  abandoned when the failure detector fires — the simulator's stand-in
  for a TCP reset — so retransmission never outlives the channel.

The server *control plane* — heartbeat detector, read leases, suspicion
hand-off, grace-delayed view proposals, lease wait-outs, the rejoin pump
— is not here: each :class:`ServerHost` incarnation owns a sans-I/O
:class:`~repro.runtime.driver.ServerDriver` and lends it the simulated
clock, scheduler and raw fabric (docs/runtime.md).  What this module
adds is what only a simulator knows: which hosts are *really* alive
(``fd.wrong_suspicions``, the choice of rejoin sponsors, "nobody else is
up, resume alone") and the mirroring of protocol statistics into the
trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from repro.core.client import ClientProtocol
from repro.core.config import ProtocolConfig
from repro.core.durable import MemorySnapshotStore
from repro.core.messages import ClientMessage, OpId, payload_size
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag
from repro.errors import ConfigurationError, SimulationError
from repro.fd.heartbeat import HeartbeatConfig
from repro.fd.perfect import PerfectFailureDetector
from repro.runtime import driver
from repro.runtime.interface import (
    CancelTimer,
    Complete,
    Fail,
    Reply,
    SendTo,
    SetTimer,
    ring_batch_depth,
)
from repro.sim.counters import (
    CODING_CACHE_READS,
    CODING_FRAGMENT_STORES,
    CODING_PENDING_DROPPED,
    CODING_RECONSTRUCTIONS,
    CODING_REPAIRS,
    EPOCH_CONFIRMS,
    EPOCH_QUORUM_STALLS,
    EPOCH_REJECTED_RECONFIGS,
    EPOCH_STALE_DROPPED,
    FD_SUSPICIONS,
    FD_UNSUSPECTS,
    FD_WRONG_SUSPICIONS,
    LEASE_EXPIRED,
    LEASE_FALLBACKS,
    LEASE_GRANTED,
    LEASE_LOCAL_READS,
    LEASE_RENEWED,
    LEASE_REVOKED,
    LEASE_WAITOUTS,
    RELIABLE_ABANDONED,
    RELIABLE_ACKS,
    RELIABLE_BATCHED_FRAMES,
    RELIABLE_BATCHED_MESSAGES,
    RELIABLE_DUPS_SUPPRESSED,
    RELIABLE_RETRANSMITS,
    RELIABLE_STALE_DROPPED,
    RING_MESSAGES,
)
from repro.sim.env import SimEnv
from repro.sim.faults import FaultPlan
from repro.sim.nemesis import Nemesis
from repro.sim.network import DEFAULT_PROPAGATION_DELAY
from repro.sim.nic import FAST_ETHERNET_BPS, Nic
from repro.sim.process import SimProcess
from repro.sim.topology import build_dual_network, build_shared_network
from repro.sim.wire import WireModel
from repro.transport.reliable import (
    BATCH_ENTRY_BYTES,
    BATCH_HEADER_BYTES,
    SEGMENT_HEADER_BYTES,
    ReliableConfig,
    ReliableSession,
    Segment,
)

#: Time between a server crash and the failure detector notifying the
#: survivors.  Chosen larger than any in-flight message delivery so that
#: wire-borne messages from the dead server land before reconfiguration
#: starts (the synchrony assumption behind the paper's perfect detector).
DEFAULT_DETECTION_DELAY = 0.005

#: Driver events (:meth:`ServerHost.count`) -> registered trace counters.
_DRIVER_COUNTERS = {
    driver.SUSPECTED: FD_SUSPICIONS,
    driver.UNSUSPECTED: FD_UNSUSPECTS,
    driver.LEASE_GRANTED: LEASE_GRANTED,
    driver.LEASE_RENEWED: LEASE_RENEWED,
    driver.LEASE_REVOKED: LEASE_REVOKED,
    driver.LEASE_EXPIRED: LEASE_EXPIRED,
}

#: Protocol statistics mirrored into the trace after each step under the
#: heartbeat detector: the epoch-guard ones always, the rest when the
#: feature that moves them is configured.
_EPOCH_STATS = (
    ("stats_stale_epoch_dropped", EPOCH_STALE_DROPPED),
    ("stats_quorum_stalls", EPOCH_QUORUM_STALLS),
    ("stats_epoch_rejected_reconfigs", EPOCH_REJECTED_RECONFIGS),
    ("stats_confirm_reconfigs", EPOCH_CONFIRMS),
)
_LEASE_STATS = (
    ("stats_lease_local_reads", LEASE_LOCAL_READS),
    ("stats_lease_fallbacks", LEASE_FALLBACKS),
    ("stats_lease_waitouts", LEASE_WAITOUTS),
)
_CODING_STATS = (
    ("stats_coding_fragment_stores", CODING_FRAGMENT_STORES),
    ("stats_coding_cache_reads", CODING_CACHE_READS),
    ("stats_coding_reconstructions", CODING_RECONSTRUCTIONS),
    ("stats_coding_repairs", CODING_REPAIRS),
    ("stats_coding_pending_dropped", CODING_PENDING_DROPPED),
)


@dataclass(frozen=True)
class OpResult:
    """Outcome handed to client completion callbacks."""

    op: OpId
    kind: str  # "read" | "write"
    ok: bool
    value: Optional[bytes] = None
    tag: Optional[Tag] = None
    error: Optional[str] = None


@dataclass
class ClusterConfig:
    """Everything needed to build a simulated cluster."""

    num_servers: int
    topology: str = "dual"  # "dual" (paper testbed) or "shared"
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    bandwidth_bps: float = FAST_ETHERNET_BPS
    wire: WireModel = field(default_factory=WireModel)
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY
    detection_delay: float = DEFAULT_DETECTION_DELAY
    #: Pre-populated register contents.  Throughput experiments read
    #: value-sized payloads, so the register must start full (the paper's
    #: read experiment necessarily measures value-carrying replies).
    initial_value: bytes = b""
    reliable_config: ReliableConfig = field(default_factory=ReliableConfig)
    #: Failure detector: ``"perfect"`` (the paper's oracle — crash events
    #: are simulation facts relayed after ``detection_delay``) or
    #: ``"heartbeat"`` (the imperfect detector: periodic beacons through
    #: the nemesis-routed network, timeout-based suspicion that can be
    #: *wrong* and is withdrawn on a late heartbeat).  Heartbeat mode
    #: forces ``protocol.view_quorum`` on: views become epoch-guarded
    #: and only install with an ack quorum of the previous view
    #: (:meth:`ProtocolConfig.for_detector` states the whole rule).
    fd: str = "perfect"
    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)

    def validate(self) -> "ClusterConfig":
        if self.num_servers < 1:
            raise ConfigurationError("num_servers must be >= 1")
        if self.topology not in ("dual", "shared"):
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if self.detection_delay <= 0:
            raise ConfigurationError("detection_delay must be > 0")
        self.protocol = self.protocol.for_detector(self.fd)
        if self.fd == "heartbeat":
            self.heartbeat.validate()
        self.reliable_config.validate()
        return self


class _OutLoop:
    """Round-robin message pump for one NIC transmit port.

    Sources are callables returning ``(dst_name, message, deliver_kind)``
    or ``None``.  At most one message is in the transmit port at a time;
    the port's idle callback re-pumps, so backpressure is exact.  The
    loop resolves each destination name to its :class:`_Link` once.
    """

    def __init__(self, host: "_HostBase", nic: Nic, sources: list[Callable]):
        self.host = host
        self.nic = nic
        self.tx = nic.tx
        #: Polling order: the source after the last one that yielded is
        #: always at the front.
        self._sources = deque(sources)
        self._links: dict[str, _Link] = {}
        nic.tx.on_idle(self.pump)

    def pump(self) -> None:
        host = self.host
        if not host.alive or self.tx.busy:
            return
        for position, source in enumerate(self._sources):
            item = source()
            if item is not None:
                break
        else:
            return
        self._sources.rotate(-position - 1)
        dst_name, message, kind = item
        link = self._links.get(dst_name)
        if link is None:
            link = self._links[dst_name] = self._resolve(dst_name)
        host.cluster.transmit(link, message, kind)

    def _resolve(self, dst_name: str) -> "_Link":
        link = self.host.cluster.reliable.link(self.host.name, dst_name)
        if link.src_nic is not self.nic:  # pragma: no cover - defensive
            raise SimulationError(f"{dst_name} is not routed through {self.nic.name}")
        return link


class _HostBase(SimProcess):
    """Common machinery for server and client hosts."""

    def __init__(self, cluster: "SimCluster", name: str):
        super().__init__(cluster.env, name)
        self.cluster = cluster
        self._loops: list[_OutLoop] = []
        for nic in cluster.topo.nics.get(name, {}).values():
            nic.owner = self
        self.on_crash(self._purge_on_crash)

    def kick(self) -> None:
        """Re-run every out-loop whose port is free (new work may be
        available; a busy port pumps itself when it drains)."""
        for loop in self._loops:
            if not loop.tx.busy:
                loop.pump()

    def _purge_on_crash(self, _process) -> None:
        for nic in self.cluster.topo.nics.get(self.name, {}).values():
            nic.tx.purge()
            nic.rx.purge()


class _ServerMachine(_HostBase):
    """A server's place on the simulated network, whatever protocol it
    hosts: its NIC(s) and its replies to clients.

    Replies are queued per destination client *machine* and served
    round-robin, modelling per-TCP-connection fairness in a real kernel:
    a writer machine's (tiny) acks are not starved behind another
    machine's (bulk) read replies.
    """

    def __init__(self, cluster: "SimCluster", server_id: int, peer_source: Callable):
        """``peer_source`` feeds the server-to-server port."""
        super().__init__(cluster, f"s{server_id}")
        self.server_id = server_id
        self._reply_queues: dict[str, deque[Reply]] = {}
        self._reply_rr: deque[str] = deque()

        nics = cluster.topo.nics[self.name]
        if cluster.config.topology == "dual":
            self.nic_ring = nics["srv"]
            self.nic_client = nics["cli"]
            self._loops.append(_OutLoop(self, self.nic_ring, [peer_source]))
            self._loops.append(_OutLoop(self, self.nic_client, [self._reply_source]))
        else:
            nic = nics["lan"]
            self.nic_ring = nic
            self.nic_client = nic
            # One NIC carries both kinds of traffic; round-robin between
            # forwarding to servers and answering clients (figure 3d).
            self._loops.append(
                _OutLoop(self, nic, [peer_source, self._reply_source])
            )

    def _reply_source(self):
        while self._reply_rr:
            machine = self._reply_rr[0]
            queue = self._reply_queues.get(machine)
            if not queue:
                self._reply_rr.popleft()
                continue
            reply = queue.popleft()
            if queue:
                self._reply_rr.rotate(-1)  # next machine's turn
            else:
                self._reply_rr.popleft()
            return (machine, reply.message, "reply")
        return None

    def post(self, replies: list[Reply]) -> None:
        for reply in replies:
            machine = self.cluster.client_name(reply.client)
            if machine is None:
                continue  # client unknown/gone; drop
            queue = self._reply_queues.setdefault(machine, deque())
            if not queue and machine not in self._reply_rr:
                self._reply_rr.append(machine)
            queue.append(reply)
        self.kick()


class ServerHost(_ServerMachine):
    """Hosts one :class:`ServerProtocol` on the simulated network.

    The host is also the :class:`~repro.runtime.driver.DriverHost` of
    its incarnation's control-plane driver: it lends the simulated
    clock, scheduler and raw fabric, and answers from the simulator's
    oracle where a real runtime could only guess.  The sharded host
    (:mod:`repro.core.sharded`) subclasses this with one protocol per
    block; everything here goes through :meth:`all_protos`.
    """

    def __init__(
        self, cluster: "SimCluster", server_id: int, proto: Optional[ServerProtocol]
    ):
        super().__init__(cluster, server_id, self._ring_source)
        #: The hosted protocol (``None`` on the sharded subclass, which
        #: keeps one per block in ``protos``).
        self.proto = proto
        #: Last-mirrored statistics, one tuple per hosted protocol, for
        #: the trace-counter deltas.
        self._mirrored_stats: list[tuple] = []
        self.driver = self._new_driver(trusting=True)
        self.on_crash(lambda _process: self.driver.stop())

    def all_protos(self) -> list[ServerProtocol]:
        """Every hosted protocol instance: one here, one per block on
        the sharded host."""
        return [self.proto]

    # -- inbound ------------------------------------------------------

    def receive_ring(self, message, sender: Optional[int] = None) -> None:
        if not self.alive:
            return
        self.post(self.proto.on_ring_message(message, sender))
        self.cluster.after_protocol_step(self)

    def receive_client(self, client_id: int, message: ClientMessage) -> None:
        if not self.alive:
            return
        self.post(self.proto.on_client_message(client_id, message))
        # A leased read completes with zero ring traffic, so the stat
        # mirror cannot wait for the next ring receipt — under heartbeat
        # mode the trace would undercount local reads forever.
        self.cluster.after_protocol_step(self)

    def receive_raw(self, message) -> None:
        """A beacon or lease message off the raw fabric."""
        if self.alive:
            self.driver.on_raw(message)

    def notify_crash(self, crashed_id: int) -> None:
        if not self.alive:
            return
        for proto in self.all_protos():
            if crashed_id in proto.ring.members:
                self.post(proto.on_server_crash(crashed_id))

    # -- driver capabilities (repro.runtime.driver.DriverHost) ----------

    def now(self) -> float:
        """This server's local clock: fabric time plus any nemesis skew."""
        return self.env.now + self.cluster.nemesis.clock_offset(self.name)

    def set_timer(self, delay: float, callback, *args) -> None:
        self.env.scheduler.schedule(delay, callback, *args)

    def send_raw(self, peer: int, message) -> None:
        """Outside the reliable layer but *through the nemesis-routed
        fabric*: partitions hold or drop beacons and lease traffic,
        pauses freeze them and throttles slow them — which is exactly
        how wrong suspicion arises."""
        src_nic, dst_nic, network = self.cluster.topo.nic_for(self.name, f"s{peer}")
        network.unicast(
            src_nic,
            dst_nic,
            payload_size(message),
            message,
            self.cluster.servers[peer].receive_raw,
        )

    def after_step(self) -> None:
        self.cluster.after_protocol_step(self)

    def count(self, event: str, peer: int) -> None:
        self.env.trace.count(_DRIVER_COUNTERS[event])
        if event == driver.SUSPECTED and self.cluster.servers[peer].alive:
            # The score the chaos gate relies on: in-simulation proof
            # that a run exercised the wrongly-suspected-but-alive case.
            self.env.trace.count(FD_WRONG_SUSPICIONS)

    def rejoin_sponsors(self, proto: ServerProtocol) -> Optional[list[int]]:
        if self.cluster.hb is not None:
            # No aliveness oracle: announce to every other member in
            # turn; frames to the dead die in transit, and "nobody is
            # alive" is indistinguishable from a partition, so there is
            # deliberately no resume-alone shortcut here.
            return self.driver.peers
        servers = self.cluster.servers
        return [sid for sid in self.driver.peers if servers[sid].alive] or None

    # -- restart (crash recovery) --------------------------------------

    def restart(self) -> None:
        """Restart this server from its durable snapshot(s) and rejoin.

        Volatile state — the protocol object(s), reply queues, NIC
        queues (purged at crash), the control-plane driver — is gone;
        the protocol is rebuilt from the snapshot store, the reliable
        channels re-open (a restart is a new connection on every link)
        and a fresh driver announces the rejoin until a reconfiguration
        folds the server back in.
        """
        if self.alive:
            return
        self.cluster.reopen_server(self.server_id)
        super().restart()
        self._reply_queues.clear()
        self._reply_rr.clear()
        self._mirrored_stats = []
        self._restore_protos()
        self.driver = self._new_driver(trusting=False)
        self.driver.start()
        self.kick()

    def _restore_protos(self) -> None:
        store = self.cluster.durable_stores.setdefault(
            self.server_id, MemorySnapshotStore()
        )
        self.proto = self._restore(
            store,
            range(self.cluster.config.num_servers),
            self.cluster.restart_resumes_alone(self.server_id),
        )

    def _restore(self, store, members, alone: bool) -> ServerProtocol:
        """Rebuild one protocol instance from its durable snapshot."""
        config = self.cluster.config
        return ServerProtocol.restore(
            self.server_id,
            members,
            store.load(),
            config.protocol,
            durable=store,
            initial_value=config.initial_value,
            alone=alone,
            generation=self.restarts,
        )

    def _new_driver(self, trusting: bool) -> driver.ServerDriver:
        config = self.cluster.config
        return driver.ServerDriver(
            self,
            self.server_id,
            [sid for sid in range(config.num_servers) if sid != self.server_id],
            self.cluster.hb,
            config.protocol.read_leases,
            trusting,
        )

    # -- outbound sources ----------------------------------------------

    def _pull_ring(self, proto: ServerProtocol):
        """The next ``(destination, payload)`` of ``proto`` for the ring
        link, or ``None``; the payload is one message or a batch list."""
        directed = proto.next_directed_message()
        if directed is not None:
            # Out-of-ring-order traffic: rejoin announcements (the
            # rejoiner is not part of anyone's ring yet), stale-epoch
            # notices, and view-proposal tokens whose first hop differs
            # from the installed successor.
            return directed
        batch = proto.next_ring_batch(self.cluster.batch_limit)
        if not batch:
            return None
        return proto.successor, batch[0] if len(batch) == 1 else batch

    def _ring_source(self):
        pulled = self._pull_ring(self.proto)
        if pulled is None:
            return None
        return (f"s{pulled[0]}", pulled[1], "ring")


class ClientHost(_HostBase):
    """One client *machine*: a NIC plus any number of logical clients.

    The paper's methodology: "the client application can emulate multiple
    clients, i.e. it can send multiple read and write requests in
    parallel.  Thus, a single writing node can saturate the storage."
    Each logical client is one :class:`ClientProtocol` (one operation in
    flight); they all share the machine's NIC.
    """

    def __init__(
        self,
        cluster: "SimCluster",
        client_id: int,
        servers: list[int],
        config: ProtocolConfig,
    ):
        super().__init__(cluster, f"c{client_id}")
        self.client_id = client_id
        self.servers = list(servers)
        self.config = config
        self.protos: dict[int, ClientProtocol] = {
            client_id: ClientProtocol(client_id, servers, config)
        }
        self.out_queue: deque[tuple[str, ClientMessage]] = deque()
        self._timers: dict[tuple[int, int], object] = {}
        self._callbacks: dict[OpId, Callable[[OpResult], None]] = {}
        nic = cluster.topo.nics[self.name][
            "cli" if cluster.config.topology == "dual" else "lan"
        ]
        self.nic = nic
        self._loops.append(_OutLoop(self, nic, [self._request_source]))

    def add_virtual_client(self) -> int:
        """Create another logical client on this machine; returns its id."""
        virtual_id = self.cluster.register_virtual_client(self)
        self.protos[virtual_id] = ClientProtocol(virtual_id, self.servers, self.config)
        return virtual_id

    # -- public operation API -------------------------------------------

    def write(
        self,
        value: bytes,
        callback: Callable[[OpResult], None],
        client_id: Optional[int] = None,
    ) -> OpId:
        self.check_alive()
        proto = self._proto(client_id)
        op, effects = proto.start_write(value)
        self._callbacks[op] = callback
        block = self._bind_block(op)
        self.cluster.record_invoke(proto.client_id, op, "write", value, block)
        self._execute(proto, effects)
        return op

    def read(
        self,
        callback: Callable[[OpResult], None],
        client_id: Optional[int] = None,
    ) -> OpId:
        self.check_alive()
        proto = self._proto(client_id)
        op, effects = proto.start_read()
        self._callbacks[op] = callback
        block = self._bind_block(op)
        self.cluster.record_invoke(proto.client_id, op, "read", None, block)
        self._execute(proto, effects)
        return op

    def abort_op(self, client_id: Optional[int] = None) -> Optional[OpId]:
        """Abandon a logical client's in-flight operation (if any):
        reset the protocol's op state, disarm its timer and drop its
        completion callback.  Used by blocking wrappers that give up on
        an operation the simulation can no longer complete.  Returns the
        abandoned op id (subclasses clean their own per-op state)."""
        proto = self._proto(client_id)
        op = proto.abandon()
        if op is not None:
            self._cancel_timer(proto.client_id, op.seq)
            self._callbacks.pop(op, None)
        return op

    def _bind_block(self, op: OpId) -> Optional[int]:
        """Hook: pin the block an operation targets at start time.

        The base register has no blocks; the sharded client host
        overrides this (the pin is what keeps a timeout retransmit in
        the originating op's block) and the returned key lands in the
        recorded history for per-block checking."""
        return None

    # -- inbound ---------------------------------------------------------

    def on_reply_delivered(self, message) -> None:
        if not self.alive:
            return
        proto = self.protos.get(message.op.client)
        if proto is not None:
            self._execute(proto, proto.on_reply(message))

    # -- internals ---------------------------------------------------------

    def _proto(self, client_id: Optional[int]) -> ClientProtocol:
        if client_id is None:
            client_id = self.client_id
        return self.protos[client_id]

    def _request_source(self):
        if not self.out_queue:
            return None
        server_name, message = self.out_queue.popleft()
        return (server_name, message, "request")

    def _on_timeout(self, client_id: int, timer_id: int) -> None:
        if not self.alive:
            return
        self._timers.pop((client_id, timer_id), None)
        proto = self.protos[client_id]
        self._execute(proto, proto.on_timeout(timer_id))

    def _execute(self, proto: ClientProtocol, effects) -> None:
        client_id = proto.client_id
        for effect in effects:
            if isinstance(effect, SendTo):
                self.out_queue.append(
                    (
                        self._request_destination(effect.server, effect.message),
                        self._wrap_request(effect.message),
                    )
                )
            elif isinstance(effect, SetTimer):
                self._cancel_timer(client_id, effect.timer_id)
                self._timers[(client_id, effect.timer_id)] = self.env.scheduler.schedule(
                    effect.delay, self._on_timeout, client_id, effect.timer_id
                )
            elif isinstance(effect, CancelTimer):
                self._cancel_timer(client_id, effect.timer_id)
            elif isinstance(effect, Complete):
                result = OpResult(
                    effect.op, effect.kind, ok=True, value=effect.value, tag=effect.tag
                )
                self.cluster.record_response(client_id, effect.op, result)
                callback = self._callbacks.pop(effect.op, None)
                if callback is not None:
                    callback(result)
            elif isinstance(effect, Fail):
                result = OpResult(effect.op, "unknown", ok=False, error=effect.reason)
                callback = self._callbacks.pop(effect.op, None)
                if callback is not None:
                    callback(result)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown effect {effect!r}")
        self.kick()

    def _wrap_request(self, message: ClientMessage) -> ClientMessage:
        """Hook for subclasses that envelope requests (sharded store)."""
        return message

    def _request_destination(self, server: int, message: ClientMessage) -> str:
        """Hook: process name a request is sent to.  The protocol picks
        ``server`` from its full server list; the sharded client host
        overrides this to map the pick onto the target block's current
        placement (retries walk that ring, not the whole cluster)."""
        return f"s{server}"

    def _cancel_timer(self, client_id: int, timer_id: int) -> None:
        handle = self._timers.pop((client_id, timer_id), None)
        if handle is not None:
            handle.cancel()


class _Link:
    """Everything that is fixed per directed host pair, resolved once.

    The route, both hosts, the two session endpoints (``tx`` sends on
    this link, ``rx`` receives from it; the ``reverse`` link holds the
    same two the other way round), this direction's timer handles, and
    the channel ``stamp`` with the one ``receive`` callable that is valid
    for it — every frame sent under a stamp carries that callable.
    """

    __slots__ = (
        "src", "dst", "src_id", "src_nic", "dst_nic", "network", "tx", "rx",
        "reverse", "retx_timer", "ack_timer", "stamp", "receive",
    )

    def __init__(self, src, dst, route, tx: ReliableSession, rx: ReliableSession):
        self.src = src
        self.dst = dst
        #: The sender's server or client-machine id, as receivers want it.
        self.src_id = int(src.name[1:])
        self.src_nic, self.dst_nic, self.network = route
        self.tx = tx
        self.rx = rx
        self.retx_timer = None
        self.ack_timer = None


class _ReliableLinkLayer:
    """Drives one :class:`~repro.transport.reliable.ReliableSession` per
    directed host pair off the cluster's event scheduler.

    The sans-I/O sessions decide *what* to (re)transmit and *what* is
    deliverable; this adapter owns the timers (retransmission backoff,
    delayed pure acks), charges segments to the NIC transmit ports like
    any other traffic, and mirrors session statistics into the trace
    (``reliable.retransmits``, ``reliable.dups_suppressed``,
    ``reliable.acks``, ``reliable.abandoned``) so chaos runs can prove
    the machinery fired.  All per-pair state lives on a :class:`_Link`,
    opened (with its reverse) the first time either direction is used.
    """

    def __init__(self, cluster: "SimCluster", config: ReliableConfig):
        self.cluster = cluster
        self.env = cluster.env
        self.scheduler = cluster.env.scheduler
        self.config = config
        self.links: dict[tuple[str, str], _Link] = {}
        #: Channel generation per host, bumped whenever the host's
        #: sessions are torn down (crash detection, restart).  A link's
        #: stamp is the pair of generations it was last (re)opened under
        #: and rides with every frame; a mismatch at arrival means the
        #: frame belongs to a connection that no longer exists — the
        #: simulator's stand-in for a TCP segment of a dead connection
        #: being discarded, which is what keeps a frame from a host's
        #: previous incarnation out of its successor's fresh session
        #: (stale high sequence numbers would otherwise poison the
        #: reorder buffer).
        self._generations: dict[str, int] = {}

    def link(self, src_name: str, dst_name: str) -> _Link:
        """The link ``src`` -> ``dst``, opened on first use."""
        return self.links.get((src_name, dst_name)) or self._open(src_name, dst_name)

    def _open(self, src_name: str, dst_name: str) -> _Link:
        """Open both directions at once: they share the two endpoints."""
        topo, hosts = self.cluster.topo, self.cluster.process_by_name
        src, dst = hosts(src_name), hosts(dst_name)
        near, far = ReliableSession(self.config), ReliableSession(self.config)
        link = _Link(src, dst, topo.nic_for(src_name, dst_name), near, far)
        back = link.reverse = _Link(dst, src, topo.nic_for(dst_name, src_name), far, near)
        back.reverse = link
        for opened in (link, back):
            self.links[opened.src.name, opened.dst.name] = opened
            self._stamp(opened)
        return link

    def _stamp(self, link: _Link) -> None:
        """(Re)open ``link`` under the current channel generations."""
        generations = self._generations
        stamp = link.stamp = (
            generations.get(link.src.name, 0), generations.get(link.dst.name, 0)
        )

        def receive(frame) -> None:
            self.deliver_stamped(link, frame, stamp)

        link.receive = receive

    # -- outbound ------------------------------------------------------

    def wrap(self, link: _Link, kind: str, message) -> tuple[Segment, int]:
        """Envelope one outgoing message; returns (segment, wire bytes)."""
        segment = link.tx.send((kind, message), self.scheduler.now)
        if link.ack_timer is not None:  # the ack rides along
            link.ack_timer.cancel()
            link.ack_timer = None
        self._sync_retx_timer(link)
        return segment, SEGMENT_HEADER_BYTES + _payload_of(message)

    # -- inbound -------------------------------------------------------

    def deliver_stamped(self, link: _Link, frame, stamp: tuple[int, int]) -> None:
        """Receive-port callback with connection identity: a frame whose
        channel was re-opened since it was sent is discarded.  ``frame``
        is one :class:`Segment` or a batch of them; either way the whole
        frame shares one connection stamp (and one nemesis fate)."""
        if stamp != link.stamp:
            self.env.trace.count(RELIABLE_STALE_DROPPED)
            return
        if isinstance(frame, list):
            for segment in frame:
                self.deliver(link, segment)
            return
        self.deliver(link, frame)

    def deliver(self, link: _Link, segment: Segment) -> None:
        """Run a segment that travelled ``link`` through the receiving
        endpoint and dispatch whatever became deliverable."""
        session = link.rx
        stats = session.stats
        dups_before = stats.dups_suppressed
        payloads = session.on_segment(segment, self.scheduler.now)
        if stats.dups_suppressed != dups_before:
            self.env.trace.count(
                RELIABLE_DUPS_SUPPRESSED, stats.dups_suppressed - dups_before
            )
        # The piggybacked ack may have advanced the receiver's own send
        # window, which is the reverse link's.
        self._sync_retx_timer(link.reverse)
        for kind, message in payloads:
            self.cluster._dispatch_payload(link, kind, message)
        if session.ack_owed:
            self._arm_ack(link.reverse)

    # -- lifecycle -----------------------------------------------------

    def abandon_peer(self, name: str) -> None:
        """Tear down every session touching ``name`` (the peer crashed).

        The failure detector calls this: a dead host's channels are
        reset, not drained, exactly as broken TCP connections would be —
        otherwise retransmission to the dead would outlive the run.
        Every such link gets a fresh stamp, which orphans the frames
        still in flight under the old one.
        """
        self._generations[name] = self._generations.get(name, 0) + 1
        for key, link in self.links.items():
            if name not in key:
                continue
            self._reset(link.tx)
            for timer in (link.retx_timer, link.ack_timer):
                if timer is not None:
                    timer.cancel()
            link.retx_timer = link.ack_timer = None
            self._stamp(link)

    #: A restart is the same reset: every link to the restarted peer is a
    #: brand-new connection, and frames of the old incarnation must not
    #: land in the fresh sessions.
    reopen_peer = abandon_peer

    def _reset(self, session: ReliableSession) -> None:
        if session.in_flight:
            self.env.trace.count(RELIABLE_ABANDONED, session.in_flight)
        session.reset()

    # -- timers --------------------------------------------------------

    def _sync_retx_timer(self, link: _Link) -> None:
        deadline = link.tx.retransmit_deadline
        handle = link.retx_timer
        if handle is not None:
            if deadline is not None and not handle.cancelled and handle.time <= deadline:
                return  # fires no later than needed; re-syncs itself
            handle.cancel()
            link.retx_timer = None
        if deadline is not None:
            link.retx_timer = self.scheduler.schedule_at(
                deadline, self._on_retx_timer, link
            )

    def _on_retx_timer(self, link: _Link) -> None:
        link.retx_timer = None
        session = link.tx
        if not link.src.alive:
            return
        if not link.dst.alive:
            # The peer died after abandon_peer's one-shot sweep and this
            # session was re-filled by a later send (a client retry
            # round-robining onto the dead server).  Retransmitting into
            # the void forever would keep the scheduler from ever going
            # idle; reset instead — TCP to a dead host errors out too.
            self._reset(session)
            return
        segments = session.poll(self.scheduler.now)
        if segments:
            self.env.trace.count(RELIABLE_RETRANSMITS, len(segments))
        # Chunk retransmissions into batch frames too — a recovering
        # link refills the pipe with the same framing a fresh burst
        # would use.
        limit = self.cluster.batch_limit
        for start in range(0, len(segments), limit):
            chunk = segments[start : start + limit]
            if len(chunk) == 1:
                self._send_segment(link, chunk[0])
            else:
                self._send_batch(link, chunk)
        self._sync_retx_timer(link)

    def _arm_ack(self, link: _Link) -> None:
        handle = link.ack_timer
        if handle is None or handle.cancelled:
            link.ack_timer = self.scheduler.schedule(
                self.config.ack_delay, self._on_ack_timer, link
            )

    def _on_ack_timer(self, link: _Link) -> None:
        link.ack_timer = None
        session = link.tx
        if not session.ack_owed or not link.src.alive:
            return
        self.env.trace.count(RELIABLE_ACKS)
        self._send_segment(link, session.make_ack())

    # -- plumbing ------------------------------------------------------

    def _send_segment(self, link: _Link, segment: Segment) -> None:
        link.network.unicast(
            link.src_nic, link.dst_nic, self._segment_bytes(segment), segment,
            link.receive,
        )

    def _send_batch(self, link: _Link, segments: list) -> None:
        wire_bytes = BATCH_HEADER_BYTES + sum(
            BATCH_ENTRY_BYTES + self._segment_bytes(s) for s in segments
        )
        self.env.trace.count(RELIABLE_BATCHED_FRAMES)
        self.env.trace.count(RELIABLE_BATCHED_MESSAGES, len(segments))
        link.network.unicast(
            link.src_nic, link.dst_nic, wire_bytes, list(segments), link.receive
        )

    @staticmethod
    def _segment_bytes(segment: Segment) -> int:
        wire_bytes = SEGMENT_HEADER_BYTES
        if segment.is_data:
            _kind, message = segment.payload
            wire_bytes += _payload_of(message)
        return wire_bytes


class SimCluster:
    """A simulated storage cluster: ring servers plus dynamic clients.

    Example::

        cluster = SimCluster.build(num_servers=5, seed=7)
        storage = AtomicStorage.over(cluster)
        storage.write(b"hello")
        assert storage.read() == b"hello"
    """

    def __init__(self, config: ClusterConfig, host_factory=None):
        """``host_factory(cluster, server_id)`` builds each server host;
        by default the ring :class:`ServerHost`.  Baseline protocols
        (:mod:`repro.baselines`) supply their own factories and reuse the
        topology, clients, failure detector and history plumbing."""
        self.config = config.validate()
        self.env = SimEnv(seed=config.seed)
        server_names = [f"s{i}" for i in range(config.num_servers)]
        builder = build_dual_network if config.topology == "dual" else build_shared_network
        self.topo = builder(
            self.env,
            server_names,
            [],
            bandwidth_bps=config.bandwidth_bps,
            wire=config.wire,
            propagation_delay=config.propagation_delay,
        )
        #: Fault controller: every network routes deliveries through it,
        #: so fault plans can partition, drop, delay, duplicate, throttle
        #: and pause without the protocol layers knowing.
        self.nemesis = Nemesis(self.env, self.topo)
        for network in self.topo.networks.values():
            network.faults = self.nemesis
        #: Reliable session layer under every unicast between hosts.
        self.reliable = _ReliableLinkLayer(self, config.reliable_config)
        #: Ring messages per wire frame, fresh or retransmitted.
        self.batch_limit = ring_batch_depth(
            config.protocol.batch_max_messages,
            config.num_servers,
            dedicated_link=config.topology == "dual",
        )
        self.ring = RingView.initial(config.num_servers)
        #: Perfect-oracle detector (``fd="perfect"``) or None under the
        #: heartbeat detector, where suspicion comes from missed beacons.
        self.fd: Optional[PerfectFailureDetector] = None
        #: Heartbeat detector timings (``fd="heartbeat"``) or None; the
        #: detector itself runs in each host's control-plane driver.
        self.hb: Optional[HeartbeatConfig] = None
        if config.fd == "perfect":
            self.fd = PerfectFailureDetector(self.env, config.detection_delay)
            self.fd.subscribe(self._fd_notify)
        else:
            self.hb = config.heartbeat
        mirrored = _EPOCH_STATS
        if config.protocol.read_leases:
            mirrored += _LEASE_STATS
        if config.protocol.value_coding == "coded":
            mirrored += _CODING_STATS
        #: What :meth:`after_protocol_step` mirrors: one reader of every
        #: mirrored statistic of a protocol, and the counters they feed.
        self._read_mirrored = attrgetter(*(stat for stat, _counter in mirrored))
        self._mirrored_counters = tuple(counter for _stat, counter in mirrored)
        self.clients: dict[int, ClientHost] = {}
        self._host_by_client_id: dict[int, ClientHost] = {}
        self._next_client_id = 0
        #: Durable snapshot stores, one per server: the simulated "disk"
        #: that outlives a crashed process and feeds its restart.
        self.durable_stores: dict[int, MemorySnapshotStore] = {}
        #: Optional history recorder (see repro.analysis.history).
        self.history = None
        #: Elastic sharding control plane (set by the sharded builders in
        #: :mod:`repro.core.sharded`): the versioned block placement
        #: table and the rebalancer driving live block migration.  None
        #: on every non-elastic cluster — hosts and clients treat that
        #: as "one ring owns everything", today's behaviour.
        self.placement = None
        self.rebalancer = None
        #: Per-server crash order (server_id -> monotone stamp).  Stamped
        #: by :meth:`note_crash`; elastic crash recovery compares stamps
        #: to decide whether a restarting ring member holds the freshest
        #: copy of its blocks (the last member to crash does).
        self.crash_stamps: dict[int, int] = {}
        self._crash_seq = 0
        if host_factory is None:
            host_factory = self._default_host_factory
        self.servers: dict[int, _HostBase] = {}
        for server_id in range(config.num_servers):
            host = host_factory(self, server_id)
            host.on_crash(self._server_crashed)
            self.servers[server_id] = host
        if self.hb is not None:
            # Cold start, in id order, once every host exists to receive.
            for host in self.servers.values():
                host.driver.start()

    @staticmethod
    def _default_host_factory(cluster: "SimCluster", server_id: int) -> "ServerHost":
        store = cluster.durable_stores.setdefault(server_id, MemorySnapshotStore())
        proto = ServerProtocol(
            server_id,
            cluster.ring,
            cluster.config.protocol,
            initial_value=cluster.config.initial_value,
            durable=store,
        )
        return ServerHost(cluster, server_id, proto)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_servers: int,
        topology: str = "dual",
        seed: int = 0,
        protocol: Optional[ProtocolConfig] = None,
        host_factory=None,
        **kwargs,
    ) -> "SimCluster":
        """Build a cluster with sensible defaults (see :class:`ClusterConfig`)."""
        return cls(
            ClusterConfig(
                num_servers=num_servers,
                topology=topology,
                seed=seed,
                protocol=protocol or ProtocolConfig(),
                **kwargs,
            ),
            host_factory=host_factory,
        )

    def add_client(
        self, home_server: Optional[int] = None, host_cls: type = ClientHost
    ) -> ClientHost:
        """Attach a new client machine to the client network.

        ``home_server`` binds the client to a server (the paper dedicates
        client machines per server); retries walk the ring from there.
        ``host_cls`` lets variants substitute their client host class
        (the sharded store attaches a :class:`ShardClientHost`).
        """
        client_id = self._next_client_id
        self._next_client_id += 1
        name = f"c{client_id}"
        nets = ["cli"] if self.config.topology == "dual" else ["lan"]
        self.topo.add_process(name, nets, self.config.bandwidth_bps)
        order = sorted(self.servers)
        if home_server is not None:
            if home_server not in self.servers:
                raise ConfigurationError(f"unknown home server {home_server}")
            index = order.index(home_server)
            order = order[index:] + order[:index]
        host = host_cls(self, client_id, order, self.config.protocol)
        self.clients[client_id] = host
        self._host_by_client_id[client_id] = host
        return host

    def register_virtual_client(self, host: "ClientHost") -> int:
        """Allocate a fresh logical-client id bound to ``host``."""
        client_id = self._next_client_id
        self._next_client_id += 1
        self._host_by_client_id[client_id] = host
        return client_id

    # ------------------------------------------------------------------
    # Routing and delivery
    # ------------------------------------------------------------------

    def client_name(self, client_id: int) -> Optional[str]:
        host = self._host_by_client_id.get(client_id)
        return host.name if host is not None else None

    def process_by_name(self, name: str) -> Optional[_HostBase]:
        """Resolve a host (server or client machine) by process name."""
        if name.startswith("s"):
            return self.servers.get(int(name[1:]))
        return self.clients.get(int(name[1:]))

    def transmit(self, link: _Link, message, kind: str) -> None:
        """Send one message (or ring batch) down ``link``."""
        trace = self.env.trace
        if kind == "ring":
            # Ring-layer traffic volume, independent of wire framing: the
            # bench divides this by completed ops to show a leased read
            # costing zero ring messages where a fenced one costs n.
            trace.count(RING_MESSAGES, len(message) if isinstance(message, list) else 1)
        wrap = self.reliable.wrap
        if isinstance(message, list):
            # A ring batch: each message becomes its own session segment
            # (own seq, own retransmission entry); only the wire framing
            # is shared.  The frame is charged the exact bytes of
            # transport.reliable.encode_batch, so simulated and asyncio
            # transports agree on wire cost.
            frame = []
            wire_bytes = BATCH_HEADER_BYTES
            for item in message:
                segment, seg_bytes = wrap(link, kind, item)
                frame.append(segment)
                wire_bytes += BATCH_ENTRY_BYTES + seg_bytes
            trace.count(RELIABLE_BATCHED_FRAMES)
            trace.count(RELIABLE_BATCHED_MESSAGES, len(frame))
        else:
            frame, wire_bytes = wrap(link, kind, message)
        link.network.unicast(
            link.src_nic, link.dst_nic, wire_bytes, frame, link.receive
        )

    def multicast_servers(self, host, message) -> None:
        """Ethernet multicast to every other alive server (naive
        broadcast baseline).  Subject to the network's collision model."""
        src_nic = host.nic_ring
        dsts = [
            other.nic_ring
            for sid, other in self.servers.items()
            if sid != host.server_id and other.alive
        ]
        if not dsts:
            return

        def deliver(dst_nic, msg) -> None:
            dst_nic.owner.receive_server(host.server_id, msg)

        network = src_nic.network
        network.multicast(src_nic, dsts, _payload_of(message), message, deliver)

    def _dispatch_payload(self, link: _Link, kind: str, message) -> None:
        """Hand a payload the session released to ``link``'s receiver."""
        if kind == "ring":
            link.dst.receive_ring(message, link.src_id)
        elif kind == "srv":
            # Generic server-to-server delivery (baseline protocols).
            link.dst.receive_server(link.src_id, message)
        elif kind == "request":
            link.dst.receive_client(link.src_id, message)
        elif kind == "reply":
            link.dst.on_reply_delivered(message)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown delivery kind {kind!r}")

    # ------------------------------------------------------------------
    # Failure detector
    # ------------------------------------------------------------------

    def _server_crashed(self, process) -> None:
        crashed_id = int(process.name[1:])
        if self.ring.is_alive(crashed_id) and self.ring.num_alive > 1:
            # Track the surviving membership (RingView requires at least
            # one alive member, so the very last crash is not recorded).
            self.ring = self.ring.without(crashed_id)
        if self.fd is not None:
            self.fd.report_crash(crashed_id)
        # Under the heartbeat detector nothing is relayed: the crash is
        # observed — or wrongly conjectured — through missed beacons.

    def _fd_notify(self, crashed_id: int) -> None:
        # The detector firing is the moment every survivor's TCP
        # connection to the dead server resets: abandon the sessions
        # (and their retransmission timers) in both directions.
        # Wire-borne frames of the dead have already landed — the
        # detection delay exceeds any in-flight delivery.
        self.reliable.abandon_peer(f"s{crashed_id}")
        for server_id, host in self.servers.items():
            if server_id != crashed_id and host.alive:
                host.notify_crash(crashed_id)

    def note_crash(self, server_id: int) -> None:
        """Record crash order (called by server hosts as they go down)."""
        self._crash_seq += 1
        self.crash_stamps[server_id] = self._crash_seq

    def crash_server(self, server_id: int) -> None:
        """Crash a server now (tests and fault plans)."""
        self.servers[server_id].crash()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def restart_server(self, server_id: int) -> None:
        """Restart a crashed server now: reload its durable snapshot and
        run the rejoin handshake until the ring folds it back in."""
        self.servers[server_id].restart()

    def reopen_server(self, server_id: int) -> None:
        """Cluster-level bookkeeping for a server restart.

        Runs *before* the host comes back alive: revive the membership
        view, clear the failure detector's suspicion (so a second crash
        is detected again) and re-open the reliable channels — every
        link to the restarted server is a brand-new connection.
        """
        if server_id in self.ring.dead:
            self.ring = self.ring.revived(server_id)
        if self.fd is not None:
            self.fd.report_recovery(server_id)
        self.reliable.reopen_peer(f"s{server_id}")

    def restart_resumes_alone(self, server_id: int) -> bool:
        """Whether a restarting server may resume without a rejoin.

        With the perfect detector, "no other host is alive" is a fact
        the runtime may consult, and a sole survivor restarts straight
        into serving.  The heartbeat detector has no such oracle: a
        restarted server always comes back *rejoining* (unless it is the
        whole cluster) — silence could be a partition, and resuming
        alone without quorum evidence would fork the register.
        """
        if self.config.fd == "heartbeat":
            return self.config.num_servers == 1
        return not any(
            sid != server_id and host.alive for sid, host in self.servers.items()
        )

    # ------------------------------------------------------------------
    # Post-step hook
    # ------------------------------------------------------------------

    def after_protocol_step(self, host) -> None:
        """Post-handler hook for the epoch-guarded mode: mirror the
        protocol statistics into the trace, then let the host's driver
        act on what the handlers asked for (reconcile, lease wait-out,
        rejoin).  No-op under the perfect detector."""
        if self.hb is None:
            return
        read = self._read_mirrored
        seen = [read(proto) for proto in host.all_protos()]
        before = host._mirrored_stats
        if seen != before:
            host._mirrored_stats = seen
            for index, counter in enumerate(self._mirrored_counters):
                delta = sum(stats[index] for stats in seen) - sum(
                    stats[index] for stats in before
                )
                if delta > 0:
                    self.env.trace.count(counter, delta)
        host.driver.poll()

    def apply_faults(self, plan: FaultPlan) -> None:
        """Schedule a :class:`~repro.sim.faults.FaultPlan` against this
        cluster: crashes hit the hosts, everything else the nemesis."""
        processes: dict[str, SimProcess] = {
            host.name: host for host in self.servers.values()
        }
        processes.update({host.name: host for host in self.clients.values()})
        plan.apply(self.env, processes, self.nemesis)

    def alive_servers(self) -> list[int]:
        return [sid for sid, host in self.servers.items() if host.alive]

    # ------------------------------------------------------------------
    # History hooks (filled in by the workload/bench layers)
    # ------------------------------------------------------------------

    def record_invoke(
        self, client_id: int, op: OpId, kind: str, value, block: Optional[int] = None
    ) -> None:
        if self.history is not None:
            self.history.invoke(self.env.now, client_id, op, kind, value, block=block)

    def record_response(self, client_id: int, op: OpId, result: OpResult) -> None:
        if self.history is not None:
            self.history.respond(self.env.now, client_id, op, result.value, result.tag)

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def run_until(self, predicate: Callable[[], bool], max_events: int = 10_000_000) -> None:
        """Advance the simulation until ``predicate()`` holds."""
        fired = 0
        while not predicate():
            if not self.env.scheduler.step():
                raise SimulationError("simulation went idle before the condition held")
            fired += 1
            if fired > max_events:
                raise SimulationError("condition not reached within event budget")


def _payload_of(message) -> int:
    """Payload bytes of a message: baseline messages size themselves via
    a ``payload_bytes()`` method; core messages use
    :func:`repro.core.messages.payload_size`."""
    sizer = getattr(message, "payload_bytes", None)
    if callable(sizer):
        return sizer()
    return payload_size(message)


# Public aliases: the baseline runtimes (repro.baselines) host their
# protocols on the same machine; perfbench spans the pump.
ServerMachine = _ServerMachine
OutLoop = _OutLoop
