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


class EventHandle:
    """A cancelable reference to a scheduled event.

    Handles are returned by :meth:`EventScheduler.schedule` and
    :meth:`EventScheduler.schedule_at`.  Cancelling an already-fired or
    already-cancelled event is a harmless no-op, which keeps timer
    bookkeeping in protocol code simple.
    """

    __slots__ = ("time", "seq", "cancelled", "_action", "_args")

    def __init__(self, time: float, seq: int, action: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        #: True once the event fired or was cancelled.
        self.cancelled = False
        self._action = action
        self._args = args

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        self._action = None
        self._args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class EventScheduler:
    """A deterministic discrete-event scheduler.

    The heap holds ``(time, seq, handle)`` tuples, so ``heapq`` orders
    entries by comparing a float and an int in C; ``seq`` is unique, so
    the comparison never reaches the handle.

    Example::

        sched = EventScheduler()
        sched.schedule(1.0, print, "hello")
        sched.run()
        assert sched.now == 1.0
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        #: Current simulated time in seconds.  A plain attribute: the
        #: clock is read several times per event, and a property costs an
        #: interpreter call each time.
        self.now = 0.0
        self._events_fired = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
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
        handle = EventHandle(time, seq, action, args)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def step(self) -> bool:
        """Run the next pending event.  Returns ``False`` when idle."""
        heap = self._heap
        while heap:
            handle = heapq.heappop(heap)[2]
            if handle.cancelled:
                continue
            action, args = handle._action, handle._args
            handle.cancel()  # mark as consumed; drops references
            self.now = handle.time
            self._events_fired += 1
            action(*args)
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
        # event, no attribute or method lookups that can be hoisted.
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        while heap:
            time, _seq, handle = heap[0]
            if handle.cancelled:
                heappop(heap)
                continue
            if until is not None and time > until:
                break
            if max_events is not None and fired >= max_events:
                return
            heappop(heap)
            action, args = handle._action, handle._args
            handle.cancelled = True  # consumed; drop references
            handle._action = None
            handle._args = ()
            self.now = time
            self._events_fired += 1
            fired += 1
            action(*args)
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
