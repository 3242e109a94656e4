"""The fair forwarding scheduler (pseudocode lines 53–75).

Under load a server must choose, every time its outgoing ring link frees
up, between *initiating* a write from its own clients (``write_queue``)
and *forwarding* a message received from its predecessor
(``forward_queue``).  Always preferring clients would stall the ring;
always preferring the ring would starve local clients.  The paper's rule:

* keep a counter ``nb_msg[p]`` of messages forwarded per originating
  server ``p`` (initiating one's own write counts toward one's own
  counter, line 26);
* when the link frees up, serve the origin with the **smallest** counter
  among those with queued work — where "self" is a candidate only when
  ``write_queue`` is non-empty (lines 61–63);
* when the forward queue is empty the counters reset (line 55) and the
  server may initiate its own write.

The scheduler guarantees that each origin obtains a ``1/n`` share of every
link under saturation, which is what makes system-wide write throughput
equal to one operation per round (Section 4.2) and bounds the latency of
every write (liveness).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Generic, Optional, TypeVar, Union

T = TypeVar("T")

#: Sentinel returned by :meth:`FairScheduler.choose` meaning "initiate
#: one of your own writes now".
INITIATE_OWN = "initiate-own"


class FairScheduler(Generic[T]):
    """Chooses between forwarding and initiating, per the nb_msg rule.

    The scheduler owns the ``forward_queue``; the caller owns the write
    queue and only tells the scheduler whether it is non-empty.

    Parameters
    ----------
    server_id:
        This server's id (the "self" candidate).
    fair:
        When ``False``, implements the naive policy the paper warns
        about — always prefer one's own writes — used by the ABL4
        ablation benchmark.
    """

    def __init__(self, server_id: int, fair: bool = True):
        self.server_id = server_id
        self.fair = fair
        self.nb_msg: dict[int, int] = {}
        #: Per-origin FIFO of ``(arrival number, item)``; the arrival
        #: numbers give the cross-origin order :meth:`drain` needs
        #: without a shared arrival deque to search on every pop.
        self._queues: dict[int, deque[tuple[int, T]]] = {}
        self._arrivals = 0
        #: Messages in the forward queue: an attribute, read on every
        #: ring pull.
        self.size = 0

    # ------------------------------------------------------------------
    # Forward-queue management
    # ------------------------------------------------------------------

    def enqueue(self, origin: int, item: T) -> None:
        """Add a message originated by ``origin`` to the forward queue."""
        self._queues.setdefault(origin, deque()).append((self._arrivals, item))
        self._arrivals += 1
        self.size += 1

    def __len__(self) -> int:
        return self.size

    @property
    def empty(self) -> bool:
        return not self.size

    def origins_queued(self) -> list[int]:
        """Origins that currently have at least one queued message."""
        return [origin for origin, queue in self._queues.items() if queue]

    def drain(self) -> list[tuple[int, T]]:
        """Remove and return every queued (origin, message) pair in
        arrival order.  Used when a reconfiguration supersedes queued
        messages."""
        queued = [
            (arrival, origin, item)
            for origin, queue in self._queues.items()
            for arrival, item in queue
        ]
        queued.sort(key=itemgetter(0))
        self._queues.clear()
        self.size = 0
        return [(origin, item) for _arrival, origin, item in queued]

    def reset_counters(self) -> None:
        """Zero every nb_msg counter (pseudocode line 55)."""
        self.nb_msg.clear()

    # ------------------------------------------------------------------
    # The choice rule
    # ------------------------------------------------------------------

    def choose(self, want_initiate: bool) -> Union[str, tuple[int, T], None]:
        """Decide what to send next on the ring.

        Parameters
        ----------
        want_initiate:
            Whether the caller's write queue is non-empty.

        Returns
        -------
        ``INITIATE_OWN``
            The caller should initiate its own next write (the caller
            must then call :meth:`note_initiated`).
        ``(origin, item)``
            Forward ``item`` (counter already incremented).
        ``None``
            Nothing to send.
        """
        if not self.fair:
            # Naive policy: always prefer own writes (ABL4 ablation).
            if want_initiate:
                return INITIATE_OWN
            return self._pop_any()

        if not self.size:
            # Line 54-58: queue empty -> reset counters, maybe initiate.
            if self.nb_msg:
                self.nb_msg.clear()
            return INITIATE_OWN if want_initiate else None

        # Lines 60-64: the least-served candidate, lowest id on a tie;
        # candidates are queued origins, plus self when we have writes
        # of our own to initiate.  Not empty, so some origin is queued.
        nb_msg = self.nb_msg
        chosen = least = -1
        if want_initiate:
            chosen = self.server_id
            least = nb_msg.get(chosen, 0)
        for origin, queue in self._queues.items():
            if queue:
                sent = nb_msg.get(origin, 0)
                if chosen < 0 or sent < least or (sent == least and origin < chosen):
                    chosen, least = origin, sent
        if chosen == self.server_id and want_initiate:
            return INITIATE_OWN
        _arrival, item = self._queues[chosen].popleft()
        self.size -= 1
        nb_msg[chosen] = least + 1
        return chosen, item

    def note_initiated(self) -> None:
        """Record that the caller initiated its own write (line 26)."""
        self.nb_msg[self.server_id] = self.nb_msg.get(self.server_id, 0) + 1

    def _pop_from(self, origin: int) -> tuple[int, T]:
        _arrival, item = self._queues[origin].popleft()
        self.size -= 1
        self.nb_msg[origin] = self.nb_msg.get(origin, 0) + 1
        return origin, item

    def _pop_any(self) -> Optional[tuple[int, T]]:
        """FIFO pop across all origins (unfair mode only)."""
        heads = [(queue[0][0], origin) for origin, queue in self._queues.items() if queue]
        if not heads:
            return None
        return self._pop_from(min(heads)[1])
