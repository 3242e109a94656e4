"""Real asyncio TCP runtime: the deployable implementation.

The same sans-I/O state machines that run in the simulator and the round
model run here over real sockets, exactly as the paper's C implementation
ran over a cluster:

* each server listens on a TCP port; connections identify themselves
  with a one-frame handshake (ring predecessor or client);
* every connection is one :class:`_Link` driven by the loop's protocol
  callbacks — no stream objects, no task per connection.  Inbound bytes
  are framed, session-filtered and stepped through the protocol inside
  ``data_received``, and the replies are written before it returns;
* ring frames leave from one ``flush`` per loop turn, armed when a step
  queued ring or directed work: it pulls
  :meth:`ServerProtocol.next_ring_batch` (up to
  :func:`~repro.runtime.interface.ring_batch_depth` messages a frame)
  while the successor link accepts bytes.  The link's
  ``pause_writing``/``resume_writing`` are the backpressure, so a slow
  successor holds messages in the protocol's queues — the paper's
  one-frame-at-a-time ring slotting — not in a socket buffer;
* a lost outgoing ring connection *is* the perfect failure detector
  (the paper: "when a TCP connection fails, the server on the other side
  of the connection failed"); the detecting predecessor coordinates the
  reconfiguration, and other servers learn of the crash from the
  reconfiguration token's dead set;
* clients connect to any server, retry at the next one on timeout;
* every frame rides in a reliable-session segment
  (:mod:`repro.transport.reliable`).  TCP already retransmits *within* a
  connection, so the session layer earns its keep at the seams TCP does
  not cover.  The *ring* session persists across same-peer reconnects: a
  sender re-establishes a dropped successor connection by retransmitting
  exactly its unacked suffix, and the receiver's sequence numbers
  deduplicate whatever had already arrived.  *Client* sessions are
  connection-scoped on both ends — across a reconnect, exactly-once
  delivery of client operations is the protocol's OpId dedup (the same
  machinery that covers retries to a *different* server) — while within
  a connection the cumulative acks tell each side which frames actually
  reached the peer application, not merely its socket buffer.  The
  simulator wires the identical sessions under its fabric, so both
  runtimes implement — not assume — the paper's reliable FIFO channels;
* crashed servers can *restart*: each node persists a write-ahead
  snapshot (:mod:`repro.core.durable`; file-backed via
  ``AsyncCluster(durable_dir=...)``), and :meth:`AsyncServerNode.restart`
  reloads it, re-listens on the node's port and announces the node to a
  live sponsor (hello kind ``rejoin``) until a reconfiguration folds it
  back into the ring.  Every hello carries the sender's restart
  generation, so a receiver can tell a same-incarnation reconnect (keep
  the ring session; replay the unacked suffix) from a restarted peer
  (fresh session — the restarted sender's sequence numbers start over);
* ``AsyncCluster(fd="heartbeat")`` swaps the perfect detector for the
  *imperfect* one: every node beacons every other (hello kind ``hb``)
  and suspects on timeout, a broken ring connection is just a broken
  connection (the sender redials; the session replays the unacked
  suffix), and reconfiguration runs in epoch-guarded ``view_quorum``
  mode — suspicion pauses a server, views install only with an ack
  quorum of the previous view, stale traffic is rejected by epoch, and
  a wrongly suspected server is folded back in through a sponsored
  merge instead of serving stale reads (see docs/reconfiguration.md).

What is *not* here is the control plane.  Beacon cadence, suspicion,
lease grants and validity, the grace-delayed view proposal and its
watchdog, the lease wait-out and the rejoin pump all run in the node's
:class:`~repro.runtime.driver.ServerDriver` — the same code the
simulator hosts — and this module only lends it sockets, the loop's
clock and ``call_later`` (docs/runtime.md).  The one piece of rejoin
policy kept here is a fact only sockets reveal: with the perfect
detector, two full rounds of refused dials mean nobody else is up.
"""

from __future__ import annotations

import asyncio
import struct
from collections import Counter
from typing import Callable, Optional

from repro.core.client import ClientProtocol
from repro.core.config import ProtocolConfig
from repro.core.durable import MemorySnapshotStore, SnapshotStore
from repro.core.messages import OpId, ReadAck, RejoinRequest, WriteAck
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.errors import StorageUnavailableError
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.driver import ServerDriver
from repro.runtime.interface import (
    CancelTimer,
    Complete,
    Fail,
    SendTo,
    SetTimer,
    ring_batch_depth,
)
from repro.transport.codec import decode_message, encode_message
from repro.transport.framing import FrameDecoder, frame
from repro.transport.reliable import (
    ReliableSession,
    Segment,
    decode_frame,
    encode_batch,
    encode_segment,
)

#: Connection hello: kind (0 = ring, 1 = client, 2 = control, 3 =
#: heartbeat), peer id, and the peer's restart generation.  The
#: generation gives ring connections *incarnation* identity: a reconnect
#: from the same peer at the same generation resumes the persistent ring
#: session (the sender replays its unacked suffix), while a higher
#: generation means the peer restarted — its session state is gone, so
#: the receiver starts a fresh session instead of suppressing the
#: newcomer's restarted sequence numbers as duplicates.
_HELLO = struct.Struct(">BqI")
_KIND_RING = 0
_KIND_CLIENT = 1
#: Out-of-ring-order control traffic: rejoin announcements and
#: stale-epoch notices, one idempotent raw frame per short-lived
#: connection.
_KIND_REJOIN = 2
#: Persistent heartbeat stream (fd="heartbeat"): raw Heartbeat frames,
#: no session layer — a retransmitted heartbeat is not freshness.
_KIND_HB = 3

#: Unsent bytes on a heartbeat connection past which the peer is not
#: draining it (asyncio's default high-water mark, where the transport
#: would pause its writer): the connection is dropped and redialled.
_HB_BACKLOG = 64 * 1024

#: How long the ring link waits before redialling an unreachable
#: successor under the heartbeat detector (where a refused connection is
#: *not* a crash certificate — the session holds the unacked suffix and
#: replays it once the dial succeeds).
_RING_REDIAL = 0.1

#: Bytes asked of the kernel per socket read.  asyncio's default is
#: 256 KiB, which CPython allocates whole and then shrinks to what
#: arrived; glibc frees the >= 64 KiB tail next to the heap top and
#: checks its trim threshold every time, so a process whose top happens
#: to sit near the threshold returns and re-faults pages on *every*
#: read — 1.5x the CPU per operation, decided by heap layout at start-up
#: (docs/perf.md, "PR 22").  Frames here are a few KiB; below 64 KiB the
#: tail never reaches glibc's consolidation threshold.
_RECV_BYTES = 32 * 1024

#: Default heartbeat timings for real sockets: much coarser than the
#: simulator's, because an event loop stalled by CI noise must not spray
#: wrong suspicions (they would be *safe*, but churny).
DEFAULT_ASYNC_HEARTBEAT = HeartbeatConfig(
    period=0.1, timeout=0.6, check_interval=0.05, propose_grace=0.25,
    lease_duration=0.4, clock_drift_bound=0.05,
)


def _segment_frame(segment: Segment) -> bytes:
    """One wire frame carrying a session-layer segment."""
    return frame(encode_segment(segment, encode_message))


def _ack_later(armed: set, session: ReliableSession, transport) -> None:
    """``session`` owes its peer an ack: give reverse traffic
    ``ack_delay`` to carry it (``session.send`` piggybacks the ack and
    clears ``ack_owed``), then spend a frame on a pure one.  ``armed``
    holds the sessions whose timer is running, so a burst of inbound
    frames costs one ack, not one per read."""
    if session in armed:
        return
    armed.add(session)

    def fire() -> None:
        armed.discard(session)
        if session.ack_owed and not transport.is_closing():
            transport.write(_segment_frame(session.make_ack()))

    asyncio.get_running_loop().call_later(session.config.ack_delay, fire)


def _segments_frame(segments: list) -> bytes:
    """One wire frame carrying one or more segments: the plain encoding
    for a single segment, the batch container for several.  Receivers
    decode both through :func:`repro.transport.reliable.decode_frame`."""
    if len(segments) == 1:
        return _segment_frame(segments[0])
    return frame(encode_batch(segments, encode_message))


def _ignore(link: "_Link", payload: bytes) -> None:
    """Frame handler of a link whose peer never sends frames."""


class _Link(asyncio.Protocol):
    """One TCP connection, either end, run by the loop's callbacks.

    ``on_frame(link, payload)`` runs for every complete inbound frame
    inside ``data_received``; ``on_lost(link)`` once, when the
    connection is gone.  An accepted connection first reads the hello
    and hands it to ``on_hello(link, kind, peer, generation)``, which
    returns the frame handler.  ``paused`` mirrors the transport's
    write-side flow control, and ``on_resume`` runs when it lifts.
    """

    def __init__(self, on_frame: Callable = _ignore, on_lost=None, on_hello=None):
        self.on_frame = on_frame
        self.on_lost = on_lost
        self.on_hello = on_hello
        self.on_resume: Optional[Callable[[], None]] = None
        self.transport: Optional[asyncio.Transport] = None
        self.kind: Optional[int] = None
        self.peer = 0
        self.session: Optional[ReliableSession] = None
        self.paused = False
        self._decoder = FrameDecoder()
        self._head = b""

    def connection_made(self, transport) -> None:
        transport.max_size = _RECV_BYTES
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        if self.on_hello is not None:
            data = self._head + data
            if len(data) < _HELLO.size:
                self._head = data
                return
            on_hello, self.on_hello = self.on_hello, None
            self.on_frame = on_hello(self, *_HELLO.unpack_from(data))
            data = data[_HELLO.size :]
        for payload in self._decoder.feed(data):
            self.on_frame(self, payload)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.on_resume is not None:
            self.on_resume()

    def connection_lost(self, exc) -> None:
        if self.on_lost is not None:
            self.on_lost(self)


async def _dial(
    address: tuple[str, int], kind: int, sender: int, generation: int,
    on_frame: Callable = _ignore, on_lost=None,
) -> _Link:
    """Connect to ``address`` and send the hello."""
    loop = asyncio.get_running_loop()
    _transport, link = await loop.create_connection(
        lambda: _Link(on_frame, on_lost), *address
    )
    link.kind = kind
    link.transport.write(_HELLO.pack(kind, sender, generation))
    return link


class AsyncServerNode:
    """One storage server on asyncio TCP."""

    def __init__(
        self,
        server_id: int,
        ring: RingView,
        addresses: dict[int, tuple[str, int]],
        config: Optional[ProtocolConfig] = None,
        durable: Optional[SnapshotStore] = None,
        fd: str = "perfect",
        heartbeat: Optional[HeartbeatConfig] = None,
    ):
        self.server_id = server_id
        # Shared mapping (the cluster may still be filling it in).
        self.addresses = addresses
        self.config = config
        #: Failure detection mode: "perfect" treats a broken ring
        #: connection as a crash certificate (the paper's model);
        #: "heartbeat" runs the imperfect detector — periodic beacons,
        #: timeout suspicion that may be wrong, epoch-guarded
        #: quorum-installed views (``config.view_quorum``) — and treats
        #: a broken connection as just a broken connection.
        self.fd = fd
        self.hb_config = (
            (heartbeat or DEFAULT_ASYNC_HEARTBEAT).validate()
            if fd == "heartbeat"
            else None
        )
        #: This incarnation's control plane (built by
        #: :meth:`spawn_background`, replaced by :meth:`restart`).
        self.driver: Optional[ServerDriver] = None
        #: Control-plane event tallies, keyed by the driver's event names.
        self.counters: Counter = Counter()
        #: Durable snapshot store; a restart reloads from it.  Use a
        #: :class:`~repro.core.durable.FileSnapshotStore` for state that
        #: must survive the *process* (the deployment story); the default
        #: in-memory store survives :meth:`restart` within one process.
        self.durable = durable if durable is not None else MemorySnapshotStore()
        #: Restart generation, carried in every outgoing hello so peers
        #: can tell a restarted incarnation from a reconnect.
        self.generation = 0
        self.proto = ServerProtocol(server_id, ring, config, durable=self.durable)
        #: Ring messages per wire frame, fresh or replayed (every TCP
        #: ring link is dedicated).
        self._batch_depth = ring_batch_depth(
            self.proto.config.batch_max_messages, len(ring.members)
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        """Everything an incarnation starts without: connections, tasks
        and sessions.  A restart's links are all new connections, which
        the bumped ``generation`` tells the peers."""
        self._stopped = False
        self._tasks: set[asyncio.Task] = set()
        self._hb_links: dict[int, _Link] = {}
        self._hb_dialing: set[int] = set()
        #: Consecutive refused rejoin announcements (see :meth:`_announced`).
        self._refused = 0
        #: Accepted connections, for :meth:`stop` to abort; each leaves
        #: in its own ``connection_lost``, as does its client entry.
        self._inbound: set[_Link] = set()
        self._client_links: dict[int, _Link] = {}
        self._ring_link: Optional[_Link] = None
        self._ring_dialing = False
        self._flush_armed = False
        # Reliable sessions: one endpoint toward the current successor
        # (reset whenever the successor changes — a new ring link is a
        # new channel), one per inbound ring peer (by ``-peer_id - 1``).
        # A client's session lives on its link: connection-scoped.
        self._ring_session = ReliableSession()
        #: The peer the ring session's stream is addressed to; a
        #: successor change resets the session *before* new messages
        #: enter it, so an undialled successor never wipes queued data.
        self._session_peer: Optional[int] = None
        self._peer_sessions: dict[int, ReliableSession] = {}
        # Last hello generation seen per inbound ring peer: a higher one
        # means the peer restarted, so its persistent session is void.
        self._peer_generations: dict[int, int] = {}
        self._acks_armed: set[ReliableSession] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _listen(self, host: str, port: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(self._accept, host, port)

    async def start(self) -> None:
        await self._listen(*self.addresses[self.server_id])
        self.spawn_background(trusting=True)

    def spawn_background(self, trusting: bool) -> None:
        """Start this incarnation's control-plane driver (``trusting``:
        a cold start trusts its peers for one timeout, a restart starts
        suspect-first)."""
        self.driver = ServerDriver(
            self,
            self.server_id,
            [sid for sid in sorted(self.addresses) if sid != self.server_id],
            self.hb_config,
            self.proto.config.read_leases,
            trusting,
        )
        self.driver.start()
        self._arm()

    async def stop(self) -> None:
        """Crash the server: abort every connection immediately."""
        self._stopped = True
        if self.driver is not None:
            self.driver.stop()
        if self._server is not None:
            self._server.close()
        for task in self._tasks:
            task.cancel()
        for link in (self._ring_link, *self._inbound, *self._hb_links.values()):
            if link is not None and link.transport is not None:
                link.transport.abort()
        await asyncio.sleep(0)

    async def restart(self) -> None:
        """Restart a stopped server from its durable snapshot and rejoin.

        The volatile half is rebuilt from scratch (:meth:`_reset_volatile`,
        a new protocol restored from the snapshot and a fresh
        suspect-first driver); the node re-listens on its recorded
        address and the driver announces it to the live servers until a
        reconfiguration folds it back in.
        """
        if not self._stopped:
            return
        self.generation += 1
        self._reset_volatile()
        self.proto = ServerProtocol.restore(
            self.server_id,
            sorted(self.addresses),
            self.durable.load(),
            self.config,
            durable=self.durable,
            generation=self.generation,
            alone=len(self.addresses) == 1,
        )
        await self._listen(*self.addresses[self.server_id])
        self.spawn_background(trusting=False)

    def _spawn(self, coro) -> None:
        """Run ``coro`` as a task :meth:`stop` cancels."""
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # Driver capabilities (repro.runtime.driver.DriverHost)
    # ------------------------------------------------------------------

    def all_protos(self) -> list[ServerProtocol]:
        return [self.proto]

    def now(self) -> float:
        return self._loop.time()

    def set_timer(self, delay: float, callback, *args) -> None:
        self._loop.call_later(delay, callback, *args)

    def send_raw(self, peer: int, message) -> None:
        """One raw frame on the persistent heartbeat connection to
        ``peer`` (no session layer: a retransmitted beacon or grant must
        not count as fresh).

        Never waits: a missing connection is dialled in the background
        and the frame rides the new connection if the dial succeeds; a
        connection the peer has stopped draining (a firewall swallowing
        packets rather than refusing them) is dropped like a failed
        dial.  Silence *is* the signal, and one dead peer must not hold
        up the beacons every *other* peer relies on for our liveness.
        """
        link = self._hb_links.get(peer)
        if link is not None and not link.transport.is_closing():
            if link.transport.get_write_buffer_size() <= _HB_BACKLOG:
                link.transport.write(frame(encode_message(message)))
                return
            link.transport.abort()
        if peer not in self._hb_dialing:
            self._hb_dialing.add(peer)
            self._spawn(self._dial_hb(peer, message))

    async def _dial_hb(self, peer: int, message) -> None:
        try:
            link = await asyncio.wait_for(
                _dial(self.addresses[peer], _KIND_HB, self.server_id, self.generation),
                timeout=self.hb_config.period,
            )
            link.transport.write(frame(encode_message(message)))
            self._hb_links[peer] = link
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass  # this beat is lost; the next one redials
        finally:
            self._hb_dialing.discard(peer)

    def post(self, replies) -> None:
        self._reply(replies)
        self._arm()

    def after_step(self) -> None:
        """Post-handler hook: let the driver act on what the handlers
        asked for, and arm the flush for what they queued."""
        self.driver.poll()
        if self.proto.has_ring_work:
            self._arm()

    def count(self, event: str, peer: int) -> None:
        self.counters[event] += 1

    def rejoin_sponsors(self, proto: ServerProtocol) -> list[int]:
        return self.driver.peers

    def _announced(self, delivered: bool) -> None:
        """Outcome of one rejoin announcement's dial.

        With the paper's failure model a refused connection means that
        server is down, so two full rounds of nothing-but-refusals mean
        *nobody* is alive: the restarted server is the whole ring and
        resumes alone from its snapshot, mirroring the simulator's
        oracle.  Perfect-detector reasoning only — under the heartbeat
        detector silence could be a partition, and resuming alone
        without quorum evidence would fork the register, so the driver
        keeps announcing instead.
        """
        self._refused = 0 if delivered else self._refused + 1
        if self.fd != "heartbeat" and self._refused >= 2 * len(self.driver.peers):
            self.driver.resume_alone()

    async def _send_control(self, destination: int, message) -> bool:
        """Best-effort out-of-ring-order frame (rejoin announcements,
        stale-epoch notices, first-hop tokens) on a connection of its
        own, closed on every path; whether the dial went through."""
        try:
            link = await _dial(
                self.addresses[destination], _KIND_REJOIN, self.server_id,
                self.generation,
            )
        except (ConnectionError, OSError):
            delivered = False  # advisory traffic; its sender re-triggers it
        else:
            try:
                link.transport.write(frame(encode_message(message)))
            finally:
                link.transport.close()
            delivered = True
        if isinstance(message, RejoinRequest):
            self._announced(delivered)
        return delivered

    # ------------------------------------------------------------------
    # Inbound connections: stepped inside data_received
    # ------------------------------------------------------------------

    def _accept(self) -> _Link:
        link = _Link(on_lost=self._inbound_lost, on_hello=self._on_hello)
        self._inbound.add(link)
        return link

    def _on_hello(self, link: _Link, kind: int, peer: int, generation: int):
        link.kind, link.peer = kind, peer
        if self._stopped:
            link.transport.abort()
            return _ignore
        if kind == _KIND_HB:
            # Peer heartbeat stream: raw frames, no session.
            return self._on_beacon
        if kind == _KIND_REJOIN:
            # Out-of-ring-order control traffic (rejoin announcements,
            # stale-epoch notices): raw frames, no session — each
            # message is idempotent and retried by its sender.
            return self._on_control
        if kind == _KIND_CLIENT:
            # Client sessions are connection-scoped (both ends make a
            # fresh one per connection): cross-connection exactly-once
            # for client operations is the protocol's OpId dedup, so
            # tying the session to the connection avoids both permanent
            # seq gaps across seams and leaking sessions under client
            # churn.
            link.session = ReliableSession()
            self._client_links[peer] = link
            return self._on_segments
        # Ring sessions persist across same-peer reconnects (the
        # unacked-suffix replay needs the receive cursor) — but only
        # within one incarnation.  A higher hello generation means the
        # peer restarted with fresh sequence numbers; keeping the old
        # cursor would suppress its entire fresh stream as duplicates.
        key = -peer - 1
        if self._peer_generations.get(key) != generation:
            self._peer_generations[key] = generation
            self._peer_sessions[key] = ReliableSession()
        # Bound once: a stale connection must never feed late frames
        # into a replacement's fresh session.
        link.session = self._peer_sessions[key]
        return self._on_segments

    def _inbound_lost(self, link: _Link) -> None:
        """The one place an accepted connection is forgotten.  A
        reconnecting client may already have replaced its entry; only
        this connection's own is removed."""
        self._inbound.discard(link)
        if link.kind == _KIND_CLIENT and self._client_links.get(link.peer) is link:
            del self._client_links[link.peer]

    def _on_beacon(self, link: _Link, payload: bytes) -> None:
        self.driver.on_raw(decode_message(payload))

    def _on_control(self, link: _Link, payload: bytes) -> None:
        self._reply(self.proto.on_ring_message(decode_message(payload), link.peer))
        self.after_step()

    def _on_segments(self, link: _Link, payload: bytes) -> None:
        """A session frame from a ring predecessor or a client."""
        session = link.session
        now = self._loop.time()
        for segment in decode_frame(payload, decode_message):
            for message in session.on_segment(segment, now):
                if link.kind == _KIND_RING:
                    replies = self.proto.on_ring_message(message, link.peer)
                else:
                    replies = self.proto.on_client_message(link.peer, message)
                self.after_step()
                if replies:
                    self._reply(replies)
        if session.ack_owed:
            # Ring links are one-directional and a client request may
            # defer its reply, so a pure ack may be needed.
            _ack_later(self._acks_armed, session, link.transport)

    def _reply(self, replies) -> None:
        """Write each reply to its client's connection, if it has one."""
        now = self._loop.time()
        for reply in replies:
            link = self._client_links.get(reply.client)
            if link is not None and not link.transport.is_closing():
                link.transport.write(
                    _segment_frame(link.session.send(reply.message, now))
                )

    # ------------------------------------------------------------------
    # Outgoing ring connection + perfect failure detection
    # ------------------------------------------------------------------

    def _arm(self) -> None:
        """Flush once, at the end of this loop turn."""
        if not self._flush_armed and not self._stopped:
            self._flush_armed = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Send what the protocol queued: directed messages on their own
        connections, ring batches to the successor while its link takes
        bytes.  A dial in progress or a paused link stops the pull; the
        dial's end or ``resume_writing`` arms the next flush."""
        self._flush_armed = False
        proto = self.proto
        while not self._stopped:
            directed = proto.next_directed_message()
            if directed is not None:
                self._spawn(self._send_control(*directed))
                continue
            link = self._ring_link
            if self._ring_dialing or (
                link is not None and link.paused and link.peer == proto.successor
            ):
                # A paused link to a *former* successor holds nothing
                # up: the next batch redials the current one.
                return
            batch = proto.has_ring_work and proto.next_ring_batch(self._batch_depth)
            if not batch:
                if (
                    self.fd == "heartbeat"
                    and self._ring_session.in_flight
                    and (link is None or link.transport.is_closing())
                ):
                    # Unacked ring traffic but no connection and no new
                    # work to trigger a dial: keep redialling, or the
                    # suffix would sit in the session until the next
                    # outbound message (a final standalone commit could
                    # otherwise stall forever on a healthy cluster).
                    self._dial_ring(proto.successor)
                return
            successor = proto.successor
            if self._session_peer != successor:
                # A different successor is a different channel: fresh
                # seqs.  Reset happens *before* the message enters the
                # session, so a retargeted stream never wipes live data.
                self._ring_session.reset()
                self._session_peer = successor
            now = self._loop.time()
            segments = [self._ring_session.send(m, now) for m in batch]
            if link is None or link.peer != successor or link.transport.is_closing():
                # The dial replays the unacked suffix, these included.
                self._dial_ring(successor)
                return
            link.transport.write(_segments_frame(segments))

    def _dial_ring(self, successor: int) -> None:
        self._drop_ring_link()
        self._ring_dialing = True
        self._spawn(self._connect_ring(successor))

    async def _connect_ring(self, successor: int) -> None:
        try:
            link = await _dial(
                self.addresses[successor], _KIND_RING, self.server_id,
                self.generation, self._on_ring_acks, self._ring_lost,
            )
        except (ConnectionError, OSError):
            self._ring_dialing = False
            self._successor_down(successor, _RING_REDIAL)
            return
        self._ring_dialing = False
        link.peer = successor
        link.on_resume = self._arm
        # Reconnected to the same peer: frames written to the old
        # connection may or may not have reached it — retransmit the
        # unacked suffix and let receive-side dedup resolve the
        # ambiguity.  This is the session layer doing for connection
        # seams what TCP does within one connection.  The replay is
        # chunked into batch frames like a fresh burst would be.
        unacked = self._ring_session.unacked_segments()
        for start in range(0, len(unacked), self._batch_depth):
            link.transport.write(
                _segments_frame(unacked[start : start + self._batch_depth])
            )
        self._ring_link = link
        self._arm()

    def _on_ring_acks(self, link: _Link, payload: bytes) -> None:
        """The successor's cumulative acks, on the ring link's read side."""
        if link is self._ring_link:
            now = self._loop.time()
            for segment in decode_frame(payload, decode_message):
                self._ring_session.on_segment(segment, now)

    def _ring_lost(self, link: _Link) -> None:
        """The paper's failure-detector signal: the connection to the
        successor is gone.  A replaced connection (a same-peer reconnect,
        a new successor) reports nothing — identity is the *connection*,
        not the peer id."""
        if self._stopped or link is not self._ring_link:
            return
        self._ring_link = None
        self._successor_down(link.peer, 0.0)

    def _successor_down(self, peer: int, redial_after: float) -> None:
        if self._stopped:
            return
        if self.fd == "heartbeat":
            # Not a crash certificate here: the successor may be
            # pausing, partitioned, or restarting.  The session keeps
            # the unacked suffix (replayed on the next successful dial);
            # suspicion — and with it the reconfiguration — is the
            # heartbeat tracker's call.
            self._loop.call_later(redial_after, self._arm)
            return
        # The paper's failure detector: the successor crashed.  Splice
        # and reconfigure; the undelivered messages' state is covered by
        # the reconfiguration merge, so they are not retransmitted.
        self._ring_session.reset()
        self._session_peer = None
        if self.proto.ring.is_alive(peer) and self.proto.ring.num_alive > 1:
            self._reply(self.proto.on_server_crash(peer))
        self._arm()

    def _drop_ring_link(self) -> None:
        link, self._ring_link = self._ring_link, None
        if link is not None:
            link.transport.close()


class AsyncClient:
    """One logical client over asyncio TCP (one operation at a time)."""

    def __init__(
        self,
        client_id: int,
        servers: list[int],
        addresses: dict[int, tuple[str, int]],
        config: Optional[ProtocolConfig] = None,
    ):
        self.proto = ClientProtocol(client_id, servers, config)
        self.client_id = client_id
        self.addresses = dict(addresses)
        # One link per live server connection, each with its own
        # reliable session.  Sessions are connection-scoped (dropped with
        # the connection, matching the server side): requests lost at a
        # connection seam are recovered by the protocol's retry timer
        # plus server-side OpId dedup, the same machinery that covers
        # retries to a different server.
        self._links: dict[int, _Link] = {}
        #: Messages waiting for a dial in progress, per server.
        self._queued: dict[int, list] = {}
        self._dials: set[asyncio.Task] = set()
        self._futures: dict[OpId, asyncio.Future] = {}
        self._timers: dict[int, asyncio.TimerHandle] = {}
        self._acks_armed: set[ReliableSession] = set()
        self._closed = False

    async def write(self, value: bytes) -> None:
        op, effects = self.proto.start_write(value)
        await self._run_op(op, effects)

    async def read(self) -> bytes:
        op, effects = self.proto.start_read()
        return await self._run_op(op, effects)

    async def close(self) -> None:
        self._closed = True
        for timer in self._timers.values():
            timer.cancel()
        for task in self._dials:
            task.cancel()
        for link in self._links.values():
            link.transport.close()
        self._links.clear()

    # ------------------------------------------------------------------

    async def _run_op(self, op: OpId, effects) -> Optional[bytes]:
        future = asyncio.get_running_loop().create_future()
        self._futures[op] = future
        self._execute(effects)
        return await future

    def _execute(self, effects) -> None:
        for effect in effects:
            if isinstance(effect, SendTo):
                self._send(effect.server, effect.message)
            elif isinstance(effect, SetTimer):
                self._cancel(effect.timer_id)
                self._timers[effect.timer_id] = asyncio.get_running_loop().call_later(
                    effect.delay, self._timeout, effect.timer_id
                )
            elif isinstance(effect, CancelTimer):
                self._cancel(effect.timer_id)
            elif isinstance(effect, Complete):
                future = self._futures.pop(effect.op, None)
                if future is not None and not future.done():
                    future.set_result(effect.value)
            elif isinstance(effect, Fail):
                future = self._futures.pop(effect.op, None)
                if future is not None and not future.done():
                    future.set_exception(
                        StorageUnavailableError(f"{effect.op}: {effect.reason}")
                    )

    def _send(self, server: int, message) -> None:
        link = self._links.get(server)
        if link is not None:
            now = asyncio.get_running_loop().time()
            link.transport.write(_segment_frame(link.session.send(message, now)))
            return
        queued = self._queued.setdefault(server, [])
        queued.append(message)
        if len(queued) == 1:
            task = asyncio.get_running_loop().create_task(self._connect(server))
            self._dials.add(task)
            task.add_done_callback(self._dials.discard)

    async def _connect(self, server: int) -> None:
        try:
            link = await _dial(
                self.addresses[server], _KIND_CLIENT, self.client_id, 0,
                self._on_frame, self._lost,
            )
        except (ConnectionError, OSError):
            self._queued.pop(server, None)
            return  # the retry timer will move us to another server
        if self._closed:
            link.transport.close()
            return
        link.peer = server
        link.session = ReliableSession()
        self._links[server] = link
        for message in self._queued.pop(server, ()):
            self._send(server, message)

    def _on_frame(self, link: _Link, payload: bytes) -> None:
        session = link.session
        now = asyncio.get_running_loop().time()
        for segment in decode_frame(payload, decode_message):
            for message in session.on_segment(segment, now):
                if isinstance(message, (ReadAck, WriteAck)):
                    self._execute(self.proto.on_reply(message))
        if session.ack_owed:
            # Acknowledge replies even when no further request is
            # imminent, so the server's send window stays clean.
            _ack_later(self._acks_armed, session, link.transport)

    def _lost(self, link: _Link) -> None:
        # The session dies with its connection (the server makes a fresh
        # one per connection too); the retry timer re-issues anything
        # that was in flight, and OpId dedup absorbs double delivery.
        if self._links.get(link.peer) is link:
            del self._links[link.peer]

    def _timeout(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)
        self._execute(self.proto.on_timeout(timer_id))

    def _cancel(self, timer_id: int) -> None:
        timer = self._timers.pop(timer_id, None)
        if timer is not None:
            timer.cancel()


class AsyncCluster:
    """Convenience: an n-server cluster on localhost ephemeral ports.

    ``durable_dir`` switches every node's snapshot store to the file
    backend (one ``s<id>.snapshot`` per server under the directory), the
    deployment configuration where state must survive the process; by
    default each node keeps an in-memory store, which is enough for
    :meth:`restart_server` within one process.
    """

    def __init__(
        self,
        num_servers: int,
        config: Optional[ProtocolConfig] = None,
        durable_dir: Optional[str] = None,
        fd: str = "perfect",
        heartbeat: Optional[HeartbeatConfig] = None,
    ):
        self.num_servers = num_servers
        self.config = (config or ProtocolConfig()).for_detector(fd)
        self.fd = fd
        self.heartbeat = heartbeat
        self.durable_dir = durable_dir
        self.nodes: dict[int, AsyncServerNode] = {}
        self.addresses: dict[int, tuple[str, int]] = {}
        self._next_client = 0

    def _make_store(self, server_id: int) -> SnapshotStore:
        if self.durable_dir is None:
            return MemorySnapshotStore()
        from repro.core.durable import FileSnapshotStore

        return FileSnapshotStore(
            f"{self.durable_dir}/s{server_id}.snapshot"
        )

    async def start(self, base_port: int = 0) -> None:
        ring = RingView.initial(self.num_servers)
        # Bind listeners first so successor connections find them.
        for server_id in range(self.num_servers):
            node = AsyncServerNode(
                server_id,
                ring,
                self.addresses,
                self.config,
                durable=self._make_store(server_id),
                fd=self.fd,
                heartbeat=self.heartbeat,
            )
            await node._listen("127.0.0.1", 0)
            actual = node._server.sockets[0].getsockname()
            self.addresses[server_id] = (actual[0], actual[1])
            self.nodes[server_id] = node
        for node in self.nodes.values():
            node.spawn_background(trusting=True)

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()

    async def crash_server(self, server_id: int) -> None:
        await self.nodes[server_id].stop()

    async def restart_server(self, server_id: int) -> None:
        """Restart a crashed server from its durable snapshot; it
        re-listens on its original port and rejoins the ring."""
        await self.nodes[server_id].restart()

    def client(self, home_server: int = 0) -> AsyncClient:
        self._next_client += 1
        order = sorted(self.nodes)
        index = order.index(home_server)
        order = order[index:] + order[:index]
        return AsyncClient(10_000 + self._next_client, order, self.addresses, self.config)
