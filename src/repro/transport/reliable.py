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
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError, ProtocolError

#: Wire overhead of the session envelope: two u32s (sequence number and
#: cumulative ack).  The simulator charges this on top of the payload;
#: :func:`encode_segment` produces exactly this many header bytes, so
#: simulated and real transports agree on the session layer's cost.
SEGMENT_HEADER_BYTES = 8

_SEGMENT_HEADER = struct.Struct(">II")


@dataclass(frozen=True)
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
    (serialisation + propagation + ack delay), or every segment is sent
    twice; it only needs to be *safe*, not tight, because duplicates are
    suppressed anyway.
    """

    rto_initial: float = 0.05
    rto_max: float = 0.8
    rto_backoff: float = 2.0
    #: How long a receiver waits for reverse traffic to piggyback its ack
    #: before spending a wire slot on a pure ack.
    ack_delay: float = 0.002

    def validate(self) -> "ReliableConfig":
        if self.rto_initial <= 0:
            raise ConfigurationError("rto_initial must be > 0")
        if self.rto_max < self.rto_initial:
            raise ConfigurationError("rto_max must be >= rto_initial")
        if self.rto_backoff < 1.0:
            raise ConfigurationError("rto_backoff must be >= 1")
        if self.ack_delay < 0:
            raise ConfigurationError("ack_delay must be >= 0")
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
        self.ack_owed = False
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
        self.ack_owed = False
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
        deliverable, in order.  Sets :attr:`ack_owed` when the segment
        needs acknowledging and no reverse send is imminent."""
        self._on_ack(segment.ack, now)
        if not segment.is_data:
            return []
        self.ack_owed = True
        seq = segment.seq
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
        self._cursor = seq
        while self._cursor + 1 in self._out_of_order:
            self._cursor += 1
            delivered.append(self._out_of_order.pop(self._cursor))
        self.stats.delivered += len(delivered)
        return delivered

    def make_ack(self) -> Segment:
        """A pure ack segment for the current receive cursor."""
        self.ack_owed = False
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
        self.ack_owed = False

    def _on_ack(self, ack: int, now: float) -> None:
        if ack <= 0 or not self._unacked:
            return
        # ``_unacked`` is insertion-ordered and seqs are assigned
        # monotonically, so the acked prefix is the dict's front.
        advanced = False
        while self._unacked:
            seq = next(iter(self._unacked))
            if seq > ack:
                break
            del self._unacked[seq]
            advanced = True
        if not advanced:
            return
        self._rto = self.config.rto_initial
        self.retransmit_deadline = (now + self._rto) if self._unacked else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReliableSession next={self._next_seq} unacked={len(self._unacked)} "
            f"cursor={self._cursor} oob={len(self._out_of_order)}>"
        )


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

#: Wire overhead of a batch container: the 8-byte ``(sentinel, count)``
#: header plus a u32 length prefix per enclosed segment.  The simulator
#: charges exactly these bytes for a batched frame, so simulated and
#: real transports keep agreeing on wire cost with batching on.
BATCH_HEADER_BYTES = SEGMENT_HEADER_BYTES
BATCH_ENTRY_BYTES = 4

_BATCH_ENTRY = struct.Struct(">I")


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
