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

``payload_size`` returns the number of application bytes each message
occupies; the simulator charges NICs with these sizes, and the asyncio
codec produces encodings of exactly these sizes (checked by tests), so the
simulator and the real transport agree on cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

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


def payload_size(message: Message) -> int:
    """Application-level payload bytes of ``message``.

    The simulator charges NICs with this size (plus the wire model's
    framing); the binary codec produces encodings of this exact size, so
    simulated and real transports agree.
    """
    if isinstance(message, ClientWrite):
        return BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + len(message.value)
    if isinstance(message, WriteAck):
        return BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + TAG_WIRE_BYTES
    if isinstance(message, ClientRead):
        return BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + TAG_WIRE_BYTES  # session tag
    if isinstance(message, ReadAck):
        return BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + TAG_WIRE_BYTES + len(message.value)
    if isinstance(message, PreWrite):
        return (
            BASE_WIRE_BYTES
            + TAG_WIRE_BYTES
            + OP_ID_WIRE_BYTES
            + 8  # epoch stamp
            + 4  # piggybacked-commit count
            + len(message.value)
            + TAG_WIRE_BYTES * len(message.commits)
        )
    if isinstance(message, Commit):
        return BASE_WIRE_BYTES + 8 + TAG_WIRE_BYTES * len(message.commits)
    if isinstance(message, StateSync):
        return (
            BASE_WIRE_BYTES
            + TAG_WIRE_BYTES
            + 8  # epoch stamp
            + 4  # piggybacked-commit count
            + len(message.value)
            + TAG_WIRE_BYTES * len(message.commits)
        )
    if isinstance(message, (ReconfigToken, ReconfigCommit)):
        pending_bytes = sum(
            TAG_WIRE_BYTES + OP_ID_WIRE_BYTES + 4 + len(entry.value)
            for entry in message.pending
        )
        return (
            BASE_WIRE_BYTES
            + 8  # nonce
            + 8  # epoch
            + 4  # coordinator
            + 4  # dead count
            + 4 * len(message.dead)
            + 4  # revived count
            + 4 * len(message.revived)
            + TAG_WIRE_BYTES
            + 4  # value length
            + len(message.value)
            + 4  # pending count
            + pending_bytes
            + 4  # completed-ops count
            + OP_ID_WIRE_BYTES * len(message.completed_ops)
            + 4  # completed-tags count
            + (8 + TAG_WIRE_BYTES) * len(message.completed_tags)
        )
    if isinstance(message, RejoinRequest):
        return BASE_WIRE_BYTES + 4 + 4 + 8  # server id + generation + epoch
    if isinstance(message, StaleEpochNotice):
        return BASE_WIRE_BYTES + 8 + 4  # epoch + sender id
    if isinstance(message, ReadFence):
        return BASE_WIRE_BYTES + 8 + 4 + 8  # nonce + origin + epoch
    if isinstance(message, FragmentStore):
        return (
            BASE_WIRE_BYTES
            + TAG_WIRE_BYTES
            + OP_ID_WIRE_BYTES
            + 4  # fragment index
            + 8  # epoch stamp
            + len(message.fragment)
        )
    if isinstance(message, FragmentFetch):
        return BASE_WIRE_BYTES + 8 + TAG_WIRE_BYTES + 4 + 8  # nonce+tag+requester+epoch
    if isinstance(message, FragmentReply):
        return (
            BASE_WIRE_BYTES
            + 8  # nonce
            + TAG_WIRE_BYTES
            + 4  # fragment index (-1: miss)
            + 8  # epoch stamp
            + len(message.fragment)
        )
    if isinstance(message, Heartbeat):
        return BASE_WIRE_BYTES + 4  # server id
    if isinstance(message, LeaseGrant):
        return BASE_WIRE_BYTES + 4 + 8 + 8  # grantor + epoch + sent_at
    if isinstance(message, LeaseRevoke):
        return BASE_WIRE_BYTES + 4 + 8  # grantor + epoch
    raise TypeError(f"unknown message type: {type(message).__name__}")
