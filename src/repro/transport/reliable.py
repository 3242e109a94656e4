"""Sans-I/O reliable session layer: the implemented TCP of the repo.

The paper assumes reliable FIFO channels between correct processes.  The
simulator used to *assume* that model too — the chaos generator refused
to schedule message loss anywhere a lost frame could violate it.  This
module implements the assumption instead, the same move message-passing
atomic-memory systems make when they build reliable channels out of an
unreliable network:

* **per-link monotone sequence numbers** — every data segment on a
  directed link carries the next sequence number;
* **cumulative acknowledgements** — each segment (data or pure ack)
  carries the highest contiguously-received sequence number of the
  *reverse* direction, so acks piggyback on reverse traffic for free and
  a single ack covers a whole burst;
* **timer-driven retransmission with exponential backoff** — unacked
  segments are resent after ``rto``, which doubles up to ``rto_max`` and
  snaps back to ``rto_initial`` whenever the ack horizon advances;
* **receive-side duplicate and reorder suppression** — segments at or
  below the delivery cursor are dropped (and re-acked, so a retransmit
  storm converges); segments beyond the next expected one are buffered
  and delivered in order once the gap fills.

A :class:`ReliableSession` is one *endpoint* of one directed-pair link:
it owns the send state toward a single peer and the receive state from
that same peer.  Two sessions — one per endpoint — form a link.  The
class is sans-I/O in the same sense as the protocol state machines:
callers pass ``now`` explicitly, transmission is "return a
:class:`Segment` for the caller to put on its wire", and retransmission
is "call :meth:`poll` when :attr:`retransmit_deadline` passes".  The
simulator drives it from the event scheduler
(:mod:`repro.runtime.sim_net`); the asyncio runtime drives it from the
event loop and uses it for cross-connection dedup and
retransmit-on-reconnect (:mod:`repro.runtime.asyncio_net`).

Sessions never give up on a live peer: retransmission continues at
``rto_max`` until the runtime learns the peer is dead and calls
:meth:`reset` (in the simulator, the failure detector / cluster does
this; over TCP, a connection reset does).  That mirrors the model: a
channel between *correct* processes is reliable; a channel to a crashed
process is garbage-collected, not drained.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError, ProtocolError
from repro.records import record

_SEGMENT_HEADER = struct.Struct(">II")

#: Wire overhead of the session envelope: two u32s (sequence number and
#: cumulative ack).  The simulator charges this on top of the payload;
#: :func:`encode_segment` packs this header, so simulated and real
#: transports agree on the session layer's cost.
SEGMENT_HEADER_BYTES = _SEGMENT_HEADER.size


@record
class Segment:
    """One session-layer frame: a payload-bearing data segment
    (``seq > 0``) or a pure cumulative acknowledgement (``seq == 0``).

    ``ack`` always carries the sender's receive cursor for the reverse
    direction, so every segment acknowledges — pure acks exist only for
    links with no reverse traffic to piggyback on.
    """

    seq: int
    ack: int
    payload: Any = None

    @property
    def is_data(self) -> bool:
        return self.seq > 0


@dataclass(frozen=True)
class ReliableConfig:
    """Session-layer tunables.

    ``rto_initial`` must exceed the healthy round-trip of the deployment
    (serialisation + propagation + the :class:`AckPacer` flush delay),
    or every segment is sent twice; it only needs to be *safe*, not
    tight, because duplicates are suppressed anyway.
    """

    rto_initial: float = 0.05
    rto_max: float = 0.8
    rto_backoff: float = 2.0

    def validate(self) -> "ReliableConfig":
        if self.rto_initial <= 0:
            raise ConfigurationError("rto_initial must be > 0")
        if self.rto_max < self.rto_initial:
            raise ConfigurationError("rto_max must be >= rto_initial")
        if self.rto_backoff < 1.0:
            raise ConfigurationError("rto_backoff must be >= 1")
        return self


@dataclass
class SessionStats:
    """Monotone counters, mirrored into the trace by the runtimes."""

    sent: int = 0
    delivered: int = 0
    retransmits: int = 0
    dups_suppressed: int = 0
    reorders_buffered: int = 0
    acks_sent: int = 0


class ReliableSession:
    """One endpoint of a reliable link to a single peer (sans-I/O)."""

    def __init__(self, config: Optional[ReliableConfig] = None):
        self.config = (config or ReliableConfig()).validate()
        # Send state.
        self._next_seq = 1
        self._unacked: dict[int, Any] = {}  # seq -> payload, insertion-ordered
        self._rto = self.config.rto_initial
        self.retransmit_deadline: Optional[float] = None
        # Receive state.
        self._cursor = 0  # highest contiguously delivered seq
        self._out_of_order: dict[int, Any] = {}
        #: Data segments received since an ack last left (piggybacked or
        #: pure); truthy while the peer is owed one.
        self.ack_owed = 0
        self.stats = SessionStats()

    # -- send side -----------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Number of unacknowledged data segments."""
        return len(self._unacked)

    def send(self, payload: Any, now: float) -> Segment:
        """Assign the next sequence number to ``payload`` and return the
        segment to transmit.  The ack rides along, so any owed ack is
        satisfied by this send."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = payload
        if self.retransmit_deadline is None:
            self.retransmit_deadline = now + self._rto
        self.ack_owed = 0
        self.stats.sent += 1
        return Segment(seq, self._cursor, payload)

    def poll(self, now: float) -> list[Segment]:
        """Return the retransmissions due at ``now`` (empty if none).

        Each call that retransmits backs the timer off; the caller
        re-arms its timer from :attr:`retransmit_deadline` afterwards.
        """
        if self.retransmit_deadline is None or now < self.retransmit_deadline:
            return []
        self._rto = min(self._rto * self.config.rto_backoff, self.config.rto_max)
        self.retransmit_deadline = now + self._rto
        self.stats.retransmits += len(self._unacked)
        return [Segment(seq, self._cursor, payload)
                for seq, payload in self._unacked.items()]

    def unacked_segments(self) -> list[Segment]:
        """Every in-flight segment, for retransmit-on-reconnect runtimes
        (the asyncio ring link replays these on a fresh connection)."""
        return [Segment(seq, self._cursor, payload)
                for seq, payload in self._unacked.items()]

    # -- receive side --------------------------------------------------

    def on_segment(self, segment: Segment, now: float) -> list[Any]:
        """Process an arriving segment; returns the payloads that became
        deliverable, in order.  Counts a data segment in :attr:`ack_owed`
        (duplicates too: their re-ack is what ends a retransmit storm).

        The cumulative ack the segment carries is taken first: it may
        advance this endpoint's own send window."""
        ack = segment.ack
        unacked = self._unacked
        if ack > 0 and unacked:
            # Seqs are assigned consecutively and only an acked prefix
            # (or everything, on reset) ever leaves, so the keys are the
            # run ``first .. _next_seq - 1`` and the acked ones its front.
            for first in unacked:
                break
            if first <= ack:
                seq = first
                while seq <= ack and unacked:
                    del unacked[seq]
                    seq += 1
                self._rto = self.config.rto_initial
                self.retransmit_deadline = (now + self._rto) if unacked else None
        seq = segment.seq
        if seq <= 0:  # a pure ack (``is_data`` without the property call)
            return []
        self.ack_owed += 1
        if seq <= self._cursor:
            self.stats.dups_suppressed += 1
            return []
        if seq > self._cursor + 1:
            if seq in self._out_of_order:
                self.stats.dups_suppressed += 1
            else:
                self._out_of_order[seq] = segment.payload
                self.stats.reorders_buffered += 1
            return []
        # In-order: deliver it plus any buffered successors.
        delivered = [segment.payload]
        out_of_order = self._out_of_order
        while seq + 1 in out_of_order:
            seq += 1
            delivered.append(out_of_order.pop(seq))
        self.stats.delivered += seq - self._cursor
        self._cursor = seq
        return delivered

    def make_ack(self) -> Segment:
        """A pure ack segment for the current receive cursor."""
        self.ack_owed = 0
        self.stats.acks_sent += 1
        return Segment(0, self._cursor)

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Abandon the link (peer crashed / connection torn down): drop
        all send and receive state.  Stats survive for reporting."""
        self._next_seq = 1
        self._unacked.clear()
        self._rto = self.config.rto_initial
        self.retransmit_deadline = None
        self._cursor = 0
        self._out_of_order.clear()
        self.ack_owed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReliableSession next={self._next_seq} unacked={len(self._unacked)} "
            f"cursor={self._cursor} oob={len(self._out_of_order)}>"
        )


class AckPacer:
    """When the sessions of one host spend a frame on a pure ack: the
    one ack rule of both runtimes (docs/runtime.md, "One ack rule").

    An ack rides reverse traffic for free: :meth:`ReliableSession.send`
    piggybacks it and zeroes ``ack_owed``.  A pure ack is spent in two
    cases only.  A session owing ``every`` segments acks at once; only a
    link with no reverse traffic, a ring link, gets there.  Any other
    owed ack leaves with the flush of one timer shared by all the
    host's sessions, armed by the first session left owing and firing
    ``delay`` later.  No timer is armed per inbound burst: a busy host
    costs one timer per ``delay``, not one per frame.

    Sans-I/O: the runtime reports each session left owing after a frame
    (:meth:`owed`) and lends two capabilities.  ``send_ack(session,
    link)`` sends ``session.make_ack()`` on ``link`` if the link can
    still carry it (``link`` is whatever the runtime sends a session's
    acks on); ``arm(delay, callback)`` calls ``callback()`` once,
    ``delay`` seconds later, and may return a handle for :meth:`close`
    to cancel.
    """

    def __init__(
        self,
        every: int,
        delay: float,
        send_ack: Callable[[ReliableSession, Any], None],
        arm: Callable[[float, Callable[[], None]], Any],
    ):
        self.every = every
        self.delay = delay
        self._send_ack = send_ack
        self._arm = arm
        #: Sessions left owing an ack after a frame, with their link.
        #: While a session is in here, the flush is armed and will ack
        #: it: a runtime may skip :meth:`owed` for it below ``every``.
        self.owing: dict[ReliableSession, Any] = {}
        self._armed = False
        #: The armed flush's handle, if the runtime gave one.
        self.timer: Any = None

    def owed(self, session: ReliableSession, link: Any) -> None:
        """``session`` still owes an ack after a frame from its peer."""
        if session.ack_owed >= self.every:
            self._send_ack(session, link)
            return
        self.owing[session] = link
        if not self._armed:
            self._armed = True
            self.timer = self._arm(self.delay, self.flush)

    def flush(self) -> None:
        """The flush timer fired: ack every session still owing; the
        timer lapses until a session owes again."""
        self._armed = False
        self.timer = None
        for session, link in self.owing.items():
            if session.ack_owed:
                self._send_ack(session, link)
        self.owing.clear()

    def close(self) -> None:
        """Forget what is owed and cancel the armed flush, if any."""
        if self.timer is not None:
            self.timer.cancel()
        self.timer = None
        self._armed = False
        self.owing.clear()


# ----------------------------------------------------------------------
# Wire form (asyncio runtime)
# ----------------------------------------------------------------------


def encode_segment(segment: Segment, encode_payload: Callable[[Any], bytes]) -> bytes:
    """Encode a segment: 8-byte header + encoded payload (data only)."""
    body = encode_payload(segment.payload) if segment.is_data else b""
    return _SEGMENT_HEADER.pack(segment.seq, segment.ack) + body


def decode_segment(data: bytes, decode_payload: Callable[[bytes], Any]) -> Segment:
    """Inverse of :func:`encode_segment`."""
    if len(data) < SEGMENT_HEADER_BYTES:
        raise ProtocolError(f"segment too short: {len(data)} bytes")
    seq, ack = _SEGMENT_HEADER.unpack_from(data)
    payload = decode_payload(data[SEGMENT_HEADER_BYTES:]) if seq > 0 else None
    return Segment(seq, ack, payload)


# ----------------------------------------------------------------------
# Batch frames (ring-frame batching, ProtocolConfig.batch_max_messages)
# ----------------------------------------------------------------------

#: Reserved value in a frame's first header slot marking a batch
#: container.  A data segment's ``seq`` starts at 1 and increments by
#: one per message; reaching 2**32 - 1 would overflow the u32 header
#: long before, so the sentinel can never collide with a real segment.
BATCH_SENTINEL = 0xFFFFFFFF

_BATCH_ENTRY = struct.Struct(">I")

#: Wire overhead of a batch container: the 8-byte ``(sentinel, count)``
#: header plus a u32 length prefix per enclosed segment.  The simulator
#: charges exactly these bytes for a batched frame, so simulated and
#: real transports keep agreeing on wire cost with batching on.
BATCH_HEADER_BYTES = SEGMENT_HEADER_BYTES
BATCH_ENTRY_BYTES = _BATCH_ENTRY.size


def batch_wire_bytes(segment_bytes: Iterable[int]) -> int:
    """Wire bytes of a batch frame enclosing segments of the given
    individual sizes (each already including its segment header)."""
    total = BATCH_HEADER_BYTES
    for size in segment_bytes:
        total += BATCH_ENTRY_BYTES + size
    return total


def encode_batch(
    segments: Sequence[Segment], encode_payload: Callable[[Any], bytes]
) -> bytes:
    """Encode several segments as one wire frame.

    Layout: ``(BATCH_SENTINEL, count)`` in the 8-byte segment-header
    slot, then each segment's :func:`encode_segment` bytes behind a u32
    length prefix.  Each enclosed segment keeps its own sequence number
    and cumulative ack — the container changes framing only, never
    session semantics.
    """
    if not segments:
        raise ProtocolError("cannot encode an empty batch")
    parts = [_SEGMENT_HEADER.pack(BATCH_SENTINEL, len(segments))]
    for segment in segments:
        encoded = encode_segment(segment, encode_payload)
        parts.append(_BATCH_ENTRY.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def decode_batch(data: bytes, decode_payload: Callable[[bytes], Any]) -> list[Segment]:
    """Inverse of :func:`encode_batch`."""
    view = memoryview(data)
    if len(view) < BATCH_HEADER_BYTES:
        raise ProtocolError(f"batch too short: {len(view)} bytes")
    sentinel, count = _SEGMENT_HEADER.unpack_from(view)
    if sentinel != BATCH_SENTINEL:
        raise ProtocolError("not a batch frame")
    offset = BATCH_HEADER_BYTES
    segments = []
    for _ in range(count):
        if offset + BATCH_ENTRY_BYTES > len(view):
            raise ProtocolError("truncated batch entry header")
        (length,) = _BATCH_ENTRY.unpack_from(view, offset)
        offset += BATCH_ENTRY_BYTES
        if offset + length > len(view):
            raise ProtocolError("truncated batch entry")
        segments.append(
            decode_segment(bytes(view[offset : offset + length]), decode_payload)
        )
        offset += length
    if offset != len(view):
        raise ProtocolError(
            f"batch length mismatch: {len(view) - offset} trailing byte(s)"
        )
    return segments


def decode_frame(data: bytes, decode_payload: Callable[[bytes], Any]) -> list[Segment]:
    """Decode one wire frame into its segments, whether it is a plain
    segment (one-element list) or a batch container.  Receivers use
    this uniformly, so a sender may batch or not per frame."""
    if len(data) >= SEGMENT_HEADER_BYTES:
        (first,) = _BATCH_ENTRY.unpack_from(data)
        if first == BATCH_SENTINEL:
            return decode_batch(data, decode_payload)
    return [decode_segment(data, decode_payload)]
