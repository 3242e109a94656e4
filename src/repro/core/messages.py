"""Protocol messages and their wire-size accounting.

Two message families exist:

* **client messages** — ``ClientWrite``/``ClientRead`` requests and their
  ``WriteAck``/``ReadAck`` replies, exchanged between clients and the one
  server they contact;
* **ring messages** — ``PreWrite`` (the value-carrying first phase),
  ``Commit`` (the second phase; carries only tags because every server
  already stored the value during the pre-write, which is the
  "piggybacked write messages" optimisation of Section 4.2),
  ``StateSync`` (predecessor-to-new-successor state push after a crash,
  pseudocode line 88) and the ``ReconfigToken``/``ReconfigCommit`` pair
  that merges server state after a membership change.

Every ring message carries a ``commits`` tuple: commit tags piggybacked on
whatever message happens to be leaving next (Section 4.2's key throughput
optimisation — commits almost never consume their own wire slot).

``WIRE_LAYOUT`` at the bottom of this module is the wire format: one
row per message, from which ``payload_size`` (what the simulator charges
NICs) and the asyncio codec's encoders and decoders are all compiled, so
the simulator and the real transport cannot disagree on cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Union

from repro.core.tags import Tag

#: Bytes charged per tag on the wire (8-byte ts + 4-byte server id).
TAG_WIRE_BYTES = 12

#: Fixed header charged per client-op identification (client id + seq).
OP_ID_WIRE_BYTES = 12

#: Small fixed cost for message type/bookkeeping fields.
BASE_WIRE_BYTES = 8


class OpId(NamedTuple):
    """Globally unique client operation identifier (client id, sequence).

    A plain tuple, like :class:`~repro.core.tags.Tag`: it keys the
    per-operation dicts on the write path, so hashing and equality are
    the interpreter's own.
    """

    client: int
    seq: int

    def __repr__(self) -> str:
        return f"Op({self.client}.{self.seq})"


# ----------------------------------------------------------------------
# Client <-> server messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClientWrite:
    """``<write, v>`` from a client to any server (pseudocode line 2)."""

    op: OpId
    value: bytes


@dataclass(frozen=True)
class WriteAck:
    """``<write_ack>`` completing a write (pseudocode line 50).

    ``tag`` is the tag the write committed under; it is ``None`` only on
    the deduplicated-retry path where the original tag is no longer
    known.  Carrying it lets the analysis layer run the fast tag-based
    atomicity check on benchmark-sized histories.
    """

    op: OpId
    tag: Optional[Tag] = None


@dataclass(frozen=True)
class ClientRead:
    """``<read>`` from a client to any server (pseudocode line 7).

    ``session`` is the largest tag the client has observed complete (its
    own writes' commit tags and prior reads' tags).  A server serving
    the read from a lease-held local copy must cover this tag — the
    client's session order is visible even if the server's local state
    lags behind other servers it talked to earlier.  ``None`` means the
    client has no session history (or predates the lease path); servers
    treat it as "any state covers it".
    """

    op: OpId
    session: Optional[Tag] = None


@dataclass(frozen=True)
class ReadAck:
    """``<read_ack, v>`` completing a read (pseudocode line 78/82)."""

    op: OpId
    value: bytes
    tag: Tag


# ----------------------------------------------------------------------
# Ring messages (server -> successor only)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PreWrite:
    """First phase of a write: disseminates (tag, value) around the ring.

    ``origin`` is the initiating server's id (== ``tag.server_id`` for
    normal writes).  ``op`` identifies the client operation so that every
    server can deduplicate retried client writes.  ``epoch`` stamps the
    sender's installed ring view; under the imperfect failure detector a
    receiver rejects traffic from any other epoch, which is what stops a
    wrongly-suspected-but-alive server's stale writes from re-entering
    the ring after a partition heals.
    """

    tag: Tag
    value: bytes
    op: OpId
    commits: tuple[Tag, ...] = ()
    epoch: int = 0

    @property
    def origin(self) -> int:
        return self.tag.server_id


@dataclass(frozen=True)
class Commit:
    """Second phase: commit notifications, by tag only.

    A standalone ``Commit`` is sent when commit tags are queued but no
    other ring message is about to leave; otherwise the tags ride in the
    ``commits`` field of another message.  ``epoch`` stamps the sender's
    installed view (see :class:`PreWrite`).
    """

    commits: tuple[Tag, ...]
    epoch: int = 0


@dataclass(frozen=True)
class StateSync:
    """Predecessor pushes its full register state to a new successor
    after splicing the ring around a crashed server (pseudocode line 88).
    ``epoch`` stamps the sender's installed view (see :class:`PreWrite`).
    """

    tag: Tag
    value: bytes
    commits: tuple[Tag, ...] = ()
    epoch: int = 0


@dataclass(frozen=True)
class PendingEntry:
    """One pending (uncommitted) write carried by reconfiguration messages."""

    tag: Tag
    value: bytes
    op: OpId


@dataclass(frozen=True)
class ReconfigToken:
    """State-merge token circulated once around the new ring after a
    membership change (a crash, or a crashed server rejoining).

    The coordinator (the crashed server's alive predecessor, or the
    rejoining server's sponsor) initiates the token; every server merges
    its own state into it and forwards it.  ``nonce`` uniquely
    identifies one reconfiguration attempt so that a token orphaned by
    its coordinator's own crash dies after one circle instead of
    circulating forever.  ``revived`` lists servers this
    reconfiguration folds *back into* the ring (crash recovery); every
    receiver splices them in before merging, so the token and its
    commit traverse the grown ring — including the rejoiner, which is
    how the rejoiner catches up.
    """

    nonce: int
    epoch: int
    coordinator: int
    dead: tuple[int, ...]
    tag: Tag
    value: bytes
    pending: tuple[PendingEntry, ...]
    completed_ops: tuple[tuple[int, int], ...]  # (client, max completed seq)
    revived: tuple[int, ...] = ()
    #: The commit tag behind each client's max completed seq, where the
    #: merging servers know it: (client, tag) pairs.  Carried so a server
    #: that learns of a completion only through the merge can still ack a
    #: retried duplicate *with* the real committed tag — an untagged ack
    #: would leave a hole in the tag coverage the benchmark-scale checker
    #: gates on.
    completed_tags: tuple[tuple[int, Tag], ...] = ()


@dataclass(frozen=True)
class ReconfigCommit:
    """Second ring traversal: install the merged state and resume."""

    nonce: int
    epoch: int
    coordinator: int
    dead: tuple[int, ...]
    tag: Tag
    value: bytes
    pending: tuple[PendingEntry, ...]
    completed_ops: tuple[tuple[int, int], ...]
    revived: tuple[int, ...] = ()
    completed_tags: tuple[tuple[int, Tag], ...] = ()


@dataclass(frozen=True)
class RejoinRequest:
    """A restarted server announcing itself to a live sponsor.

    Sent outside the ring order (the rejoiner is not part of anyone's
    ring yet).  The sponsor folds the rejoiner back in by coordinating a
    reconfiguration whose token carries ``revived=(server_id,)``.
    ``generation`` is the rejoiner's restart count — informational (it
    lets traces distinguish announcements across repeated restarts); the
    request itself is idempotent and retried until the rejoiner is
    resumed by a reconfiguration commit.  ``epoch`` stamps the last view
    the rejoiner had installed: the sponsor's fold-in token necessarily
    carries a higher epoch, and a request claiming an epoch *above* the
    sponsor's own is dropped (a confused rejoiner cannot drag the ring
    backwards).
    """

    server_id: int
    generation: int = 0
    epoch: int = 0


@dataclass(frozen=True)
class ReadFence:
    """One full ring circulation proving the origin's epoch is live.

    The fallback read path when a server cannot serve locally (no valid
    lease, or the lease epoch lags the installed view): the origin
    enqueues a fence and serves the read only once the fence returns.
    Every hop applies the same epoch guard as data traffic, so a fence
    completing a circle proves the origin's installed view was the
    ring's view for the whole circulation — a server partitioned out of
    a newer epoch can never complete one, which is what makes the
    fallback safe where an unconditional local read would not be.
    ``nonce`` identifies the fence so the origin can match the returning
    token to its waiting reads; fences carry no data (state moved during
    the writes' own circulations).
    """

    nonce: int
    origin: int
    epoch: int = 0


@dataclass(frozen=True)
class FragmentStore:
    """Directed delivery of one server's value fragment (coded backend).

    Under ``value_coding="coded"`` the initiating server stripes the
    value with :mod:`repro.core.coding` and sends each ring member the
    single fragment that member will store, while the ring circulates a
    *value-less* :class:`PreWrite` as the ordering/commit circle.  A
    receiver holds the pre-write until its fragment arrives (and only
    then forwards it), so a completed circle keeps its original meaning:
    every alive server durably stores its share of the value.  ``index``
    is the receiver's fragment index — its position in the (immutable)
    member tuple.  ``epoch`` stamps the sender's installed view exactly
    like all ring data traffic.
    """

    tag: Tag
    op: OpId
    index: int
    fragment: bytes
    epoch: int = 0


@dataclass(frozen=True)
class FragmentFetch:
    """Request for a peer's fragment of the value committed at ``tag``.

    A coded read that cannot be served from the reconstruction cache
    pulls ``k - 1`` peer fragments (its own fragment is the k-th),
    decodes, and replies with the whole value.  ``nonce`` matches the
    replies to the requesting read batch.
    """

    nonce: int
    tag: Tag
    requester: int
    epoch: int = 0


@dataclass(frozen=True)
class FragmentReply:
    """A peer's answer to :class:`FragmentFetch`.

    ``index`` is the replier's fragment index, or ``-1`` when the peer
    holds no fragment for the requested tag (``fragment`` is then
    empty); the requester keeps waiting for other peers.  Fragments are
    content-addressed by ``(tag, index)`` — a reply can be stale in
    epoch but never wrong in bytes.
    """

    nonce: int
    tag: Tag
    index: int
    fragment: bytes
    epoch: int = 0


@dataclass(frozen=True)
class StaleEpochNotice:
    """Tells a stale sender that the ring has moved on without it.

    Sent outside the ring order by a server that rejected epoch-stale
    traffic (or an epoch-stale reconfiguration attempt).  ``epoch`` is
    the *sender's* installed epoch; a receiver whose own epoch is lower
    knows it was excluded from a view it never saw — it must stop
    serving and rejoin through a sponsor, exactly like a restarted
    server.  The notice is advisory: losing it only delays the rejoin
    (the excluded server's own stalled traffic re-triggers it).
    """

    epoch: int
    sender: int


@dataclass(frozen=True)
class Heartbeat:
    """Liveness beacon for the imperfect failure detector.

    Exchanged between every pair of servers outside the ring order and
    outside the reliable session layer — a retransmitted heartbeat would
    defeat its purpose as a freshness signal.
    """

    server_id: int


@dataclass(frozen=True)
class LeaseGrant:
    """Grantor ``grantor`` extends ``holder``'s read lease under ``epoch``.

    Rides the heartbeat channel (outside the reliable session layer, for
    the same freshness reason), and is only *sent* while the grantor
    currently trusts the holder and shares its installed epoch.  The
    holder's lease is valid while it holds a fresh grant from every
    other alive member of its installed view — see
    :class:`repro.fd.heartbeat.ReadLease`.

    Freshness is measured from ``sent_at`` — the *grantor's* clock at
    send time — not from receipt: a grant held in a partition (TCP
    buffering) and flushed at heal must arrive already-expired, or a
    holder cut off from the ring would revive a lease its grantor wrote
    off an epoch ago.  Cross-clock comparison is sound because the
    deployment declares ``clock_drift_bound`` and the epoch wait-out
    charges twice it.
    """

    grantor: int
    epoch: int = 0
    sent_at: float = 0.0


@dataclass(frozen=True)
class LeaseRevoke:
    """Grantor ``grantor`` withdraws its lease grant early.

    Best-effort latency optimisation: a grantor that newly suspects a
    holder (or installs a view excluding it) revokes so the holder stops
    serving locally before its grant would have expired.  Safety never
    rests on delivery — an undelivered revoke just means the holder
    serves until ``lease_duration`` runs out, which the epoch wait-out
    already accounts for.
    """

    grantor: int
    epoch: int = 0


RingMessage = Union[
    PreWrite,
    Commit,
    StateSync,
    ReconfigToken,
    ReconfigCommit,
    RejoinRequest,
    StaleEpochNotice,
    ReadFence,
    FragmentStore,
    FragmentFetch,
    FragmentReply,
]
ClientMessage = Union[ClientWrite, ClientRead]
ServerReply = Union[WriteAck, ReadAck]
Message = Union[RingMessage, ClientMessage, ServerReply]


#: Fixed-width field kinds -> ``struct`` format (big-endian, unpadded).
FIXED_KINDS = {
    "i32": "i", "u32": "I", "i64": "q", "f64": "d",
    "tag": "qi",  # Tag(ts, server_id); signed, Tag.ZERO is (0, -1)
    "opt_tag": "qi",  # Optional[Tag]: None travels as Tag.ZERO
    "op": "qi",  # OpId(client, seq)
}  # fmt: skip

#: Variable-width field kinds -> (is a u32 count in front?, format of
#: each item; ``"s"`` is raw bytes, whose count is their length).
#: Without the count a field runs to the end of the body, so only a
#: layout's last field may be one; a layout without one ends where its
#: last field does.
SEQUENCE_KINDS = {
    "bytes": (True, "s"), "tail": (False, "s"),
    "tags": (True, "qi"), "tags_to_end": (False, "qi"),
    "i32s": (True, "i"),
    "op_pairs": (True, "qi"),  # (client, max completed seq)
    "client_tags": (True, "qqi"),  # (client, Tag)
    "pending": (True, "qiqiIs"),  # PendingEntry: tag, op, u32 length, value
}  # fmt: skip

#: A message body: ``(field, kind)`` in wire order.
Layout = tuple[tuple[str, str], ...]

_RECONFIG_LAYOUT: Layout = (
    ("nonce", "i64"), ("epoch", "i64"), ("coordinator", "i32"),
    ("dead", "i32s"), ("revived", "i32s"), ("tag", "tag"), ("value", "bytes"),
    ("pending", "pending"), ("completed_ops", "op_pairs"),
    ("completed_tags", "client_tags"),
)  # fmt: skip

#: The wire format, one row per message: type code, then the body's
#: fields in wire order.  On the wire the body follows an 8-byte header
#: (the type code, three reserved bytes, the u32 body length).
#: :func:`payload_size` and the codec's encoders and decoders
#: (:mod:`repro.transport.codec`) are all compiled from these rows at
#: import, so the bytes the simulator charges are the bytes a socket
#: carries; a new message type is a dataclass, a union entry and a row.
WIRE_LAYOUT: dict[type, tuple[int, Layout]] = {
    ClientWrite: (1, (("op", "op"), ("value", "tail"))),
    WriteAck: (2, (("op", "op"), ("tag", "opt_tag"))),
    ClientRead: (3, (("op", "op"), ("session", "opt_tag"))),
    ReadAck: (4, (("op", "op"), ("tag", "tag"), ("value", "tail"))),
    PreWrite: (5, (("tag", "tag"), ("op", "op"), ("epoch", "i64"),
                   ("commits", "tags"), ("value", "tail"))),
    Commit: (6, (("epoch", "i64"), ("commits", "tags_to_end"))),
    StateSync: (7, (("tag", "tag"), ("epoch", "i64"), ("commits", "tags"),
                    ("value", "tail"))),
    ReconfigToken: (8, _RECONFIG_LAYOUT),
    ReconfigCommit: (9, _RECONFIG_LAYOUT),
    RejoinRequest: (10, (("server_id", "i32"), ("generation", "u32"),
                         ("epoch", "i64"))),
    StaleEpochNotice: (11, (("epoch", "i64"), ("sender", "i32"))),
    Heartbeat: (12, (("server_id", "i32"),)),
    LeaseGrant: (13, (("grantor", "i32"), ("epoch", "i64"), ("sent_at", "f64"))),
    LeaseRevoke: (14, (("grantor", "i32"), ("epoch", "i64"))),
    ReadFence: (15, (("nonce", "i64"), ("origin", "i32"), ("epoch", "i64"))),
    FragmentStore: (16, (("tag", "tag"), ("op", "op"), ("index", "i32"),
                         ("epoch", "i64"), ("fragment", "tail"))),
    FragmentFetch: (17, (("nonce", "i64"), ("tag", "tag"), ("requester", "i32"),
                         ("epoch", "i64"))),
    FragmentReply: (18, (("nonce", "i64"), ("tag", "tag"), ("index", "i32"),
                         ("epoch", "i64"), ("fragment", "tail"))),
}  # fmt: skip


def compile_size(fields: Layout) -> Callable[[Any], int]:
    """The function sizing a message laid out as ``fields``: the fixed
    widths summed once, here, plus one term per variable-width field."""
    fixed = BASE_WIRE_BYTES
    terms: list[str] = []
    for name, kind in fields:
        if kind in FIXED_KINDS:
            fixed += struct.calcsize(">" + FIXED_KINDS[kind])
            continue
        counted, item = SEQUENCE_KINDS[kind]
        fixed += 4 * counted
        width = struct.calcsize(">" + item.rstrip("s"))
        if item == "s":
            terms.append(f"len(m.{name})")
        elif item.endswith("s"):
            terms.append(f"sum([{width} + len(e.value) for e in m.{name}])")
        else:
            terms.append(f"{width} * len(m.{name})")
    sizer: Callable[[Any], int] = eval("lambda m: " + " + ".join([str(fixed), *terms]))
    return sizer


_SIZERS = {cls: compile_size(fields) for cls, (_, fields) in WIRE_LAYOUT.items()}


def payload_size(message: Message) -> int:
    """Application-level payload bytes of ``message``.

    The simulator charges NICs with this size (plus the wire model's
    framing); the binary codec produces encodings of this exact size, so
    simulated and real transports agree.
    """
    try:
        return _SIZERS[type(message)](message)
    except KeyError:
        raise TypeError(f"unknown message type: {type(message).__name__}") from None
