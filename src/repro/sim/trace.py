"""Structured tracing and counters for simulation runs.

A :class:`TraceRecorder` collects two kinds of data:

* *counters* — monotonically increasing named integers (messages sent,
  bytes on the wire, collisions, retransmissions, ...);
* *events* — optional timestamped records used by tests that assert on
  fine-grained ordering (disabled by default because benchmark runs emit
  millions of them).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulation event."""

    time: float
    kind: str
    details: tuple = ()


@dataclass
class TraceRecorder:
    """Collects counters and (optionally) a full event log."""

    record_events: bool = False
    #: The counters as emitters write them; readers use :attr:`counters`.
    tally: Counter = field(default_factory=Counter)
    events: list[TraceEvent] = field(default_factory=list)
    #: Called whenever :attr:`counters` is read: an owner of statistics
    #: kept elsewhere folds what changed into :attr:`tally` here, instead
    #: of after every step.
    folds: list[Callable[[], None]] = field(default_factory=list)

    @property
    def counters(self) -> Counter:
        """Every counter, statistics kept elsewhere folded in."""
        for fold in self.folds:
            fold()
        return self.tally

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.tally[name] += amount

    def emit(self, time: float, kind: str, *details: Any) -> None:
        """Record an event if event recording is enabled."""
        if self.record_events:
            self.events.append(TraceEvent(time, kind, tuple(details)))

    def last(self, kind: str) -> Optional[TraceEvent]:
        """Return the most recent event of ``kind``, if any."""
        for event in reversed(self.events):
            if event.kind == kind:
                return event
        return None

    def reset_counters(self) -> None:
        """Zero all counters (used between warm-up and measurement);
        what is folded in from elsewhere restarts from here too."""
        self.counters.clear()
