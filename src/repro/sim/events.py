"""Deterministic event-heap scheduler.

The scheduler is the heart of the simulator: every NIC transmission,
message delivery, timer and fault is an event on a single binary heap.
Determinism matters because the test-suite and the benchmark harness rely
on bit-identical reruns from the same seed; ties in firing time are broken
by a monotonically increasing sequence number, never by object identity.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class EventHandle(list):
    """A scheduled event: the heap entry itself, and its cancel handle.

    The entry is ``[time, seq, action, args, scheduler]``.  ``heapq``
    orders entries by comparing ``time`` and then ``seq`` in C; ``seq``
    is unique, so the comparison never reaches the action.  Being a
    list, the entry costs no ``__init__`` frame and no attribute stores,
    and there is no second object per event.  Firing or cancelling an
    event clears its ``action`` slot, so cancelling an already-fired or
    already-cancelled event is a harmless no-op, which keeps timer
    bookkeeping in protocol code simple.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        """True once the event fired or was cancelled."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self[2] is None:
            return
        self[2] = None
        self[3] = ()
        # The entry stays on the heap until popped or compacted away.
        scheduler = self[4]
        scheduler._dead += 1
        if scheduler._dead * 2 > len(scheduler._heap):
            scheduler._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"<EventHandle t={self[0]:.6f} seq={self[1]} {state}>"


class EventScheduler:
    """A deterministic discrete-event scheduler.

    The heap holds ``(time, seq, handle)`` tuples, so ``heapq`` orders
    entries by comparing a float and an int in C; ``seq`` is unique, so
    the comparison never reaches the handle.  Cancelled entries stay on
    the heap until they are popped, or until they outnumber the live
    ones and :meth:`_compact` drops them all; ``(time, seq)`` is a total
    order, so compaction never changes which event fires next.

    Example::

        sched = EventScheduler()
        sched.schedule(1.0, print, "hello")
        sched.run()
        assert sched.now == 1.0
    """

    def __init__(self) -> None:
        self._heap: list[EventHandle] = []
        self._seq = 0
        #: Current simulated time in seconds.  A plain attribute: the
        #: clock is read several times per event, and a property costs an
        #: interpreter call each time.
        self.now = 0.0
        self._events_fired = 0
        #: Cancelled entries still on the heap.
        self._dead = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of entries on the heap (cancelled ones not yet dropped
        included)."""
        return len(self._heap)

    def schedule(self, delay: float, action: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``action(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, action, *args)

    def schedule_at(self, time: float, action: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``action(*args)`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = EventHandle((time, seq, action, args, self))
        heapq.heappush(self._heap, entry)
        return entry

    def _compact(self) -> None:
        """Drop every cancelled entry.  In place: :meth:`run` holds the
        list while actions (which may cancel) execute."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._dead = 0

    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` when idle."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            action = entry[2]
            if action is None:
                self._dead -= 1
                continue
            entry[2] = None  # consumed
            self.now = entry[0]
            self._events_fired += 1
            action(*entry[3])
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the heap is empty, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, mirroring how a wall clock
        keeps ticking after a quiet period.
        """
        # The simulator's innermost loop: one peek and one pop per fired
        # event, no attribute or method lookups that can be hoisted, and
        # the fired count kept in a local until the loop ends.
        heap = self._heap
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        budget = -1 if max_events is None else max_events
        fired = 0
        try:
            while heap:
                entry = heap[0]
                action = entry[2]
                if action is None:
                    heappop(heap)
                    self._dead -= 1
                    continue
                if entry[0] > horizon:
                    break
                if fired == budget:
                    return
                heappop(heap)
                entry[2] = None  # consumed
                self.now = entry[0]
                fired += 1
                action(*entry[3])
        finally:
            self._events_fired += fired
        if until is not None and self.now < until:
            self.now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain.  Guards against runaway loops."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"simulation did not quiesce within {max_events} events"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventScheduler now={self.now:.6f} pending={len(self._heap)}>"
