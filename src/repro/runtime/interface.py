"""Effect vocabulary shared by every runtime.

Protocol state machines (:mod:`repro.core.server`,
:mod:`repro.core.client`, and every baseline) are *sans-I/O*: they never
touch sockets, clocks or event loops.  Inputs arrive through ``on_*``
methods; outputs are returned as lists of the effect values defined here,
which the runtime then executes.

Ring data messages are deliberately **not** an effect: a server's ring
link transmits one frame at a time, so the runtime *pulls* the next frame
(``ServerProtocol.next_ring_batch`` with :func:`ring_batch_depth`)
whenever the link is free.  This pull contract is what the paper's
``queue handler`` task becomes in an event-driven implementation; at depth
one it maps one-to-one onto "send at most one message per round" in the
round model (``ServerProtocol.next_ring_message``).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.messages import ClientMessage, OpId, ServerReply
from repro.records import record


@record
class Reply:
    """Server-side effect: send ``message`` to ``client``."""

    client: int
    message: ServerReply


@record
class SendTo:
    """Client-side effect: send ``message`` to ``server`` and give the
    attempt ``timeout`` s.

    A client has one operation in flight, so it has one deadline: each
    request moves it, and :class:`Complete` or :class:`Fail` drops it.
    A deadline that passes is ``ClientProtocol.on_timeout``.
    """

    server: int
    message: ClientMessage
    timeout: float


@record
class Complete:
    """Client-side effect: operation ``op`` finished.

    ``value`` is the read result (``None`` for writes); ``tag`` is the
    value's tag when the runtime records histories for linearizability
    checking.
    """

    op: OpId
    kind: str  # "read" | "write"
    value: Optional[bytes] = None
    tag: Optional[object] = None


@record
class Fail:
    """Client-side effect: operation ``op`` exhausted its retries."""

    op: OpId
    reason: str


Effect = Union[Reply, SendTo, Complete, Fail]

#: Batch-depth budget per full ring traversal.  16 keeps the default
#: depth of 4 intact up to the paper's 4-server midpoint and degenerates
#: to 2 at n=8, where deeper frames measurably cost contended read
#: throughput (figure 3c's linearity sags ~5 % at n=8 with k=4).
BATCH_DEPTH_RING_BUDGET = 16


def ring_batch_depth(knob: int, num_servers: int, dedicated_link: bool = True) -> int:
    """Ring messages per wire frame — fresh frames, retransmissions and
    reconnect replays alike, in every runtime.

    ``knob`` is ``ProtocolConfig.batch_max_messages``.  It is capped by
    ring size: a frame is stored and forwarded whole at every hop, so the
    latency a k-deep batch adds to a full traversal grows with ``k*n``;
    bounding that product keeps the batch a framing optimisation at every
    cluster size.  Where the ring shares its transmit port with client
    replies (the simulator's ``shared`` topology) the two round-robin
    frame by frame, so a k-message ring frame would take a k-fold
    bandwidth share and starve read replies (figure 3d's balance):
    batching there is a fairness regression and the depth is 1.
    """
    if not dedicated_link:
        return 1
    return min(knob, max(1, BATCH_DEPTH_RING_BUDGET // num_servers))


def ack_every(depth: int) -> int:
    """Segments a receiver may owe before it spends a frame on a pure
    ack, on links whose sender batches ``depth`` messages a frame
    (:class:`~repro.transport.reliable.AckPacer`).

    Over TCP an ack only trims the sender's reconnect-replay buffer, and
    this count bounds that buffer: a replay is at most
    ``BATCH_DEPTH_RING_BUDGET`` full frames.  The simulator's senders
    retransmit themselves; the flush timer, not this count, bounds how
    late their acks come."""
    return BATCH_DEPTH_RING_BUDGET * depth
