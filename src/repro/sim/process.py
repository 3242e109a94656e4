"""Simulated process (actor) base class.

A :class:`SimProcess` is anything with a name that can crash: servers,
clients, fault injectors.  The class deliberately contains *no* protocol
logic — protocol state machines live in :mod:`repro.core` and are wired to
processes by the runtime (:mod:`repro.runtime.sim_net`).

Crash semantics follow the paper's model: a crashed process stops
performing any computation step.  Components that hold references to a
process (channels, failure detectors) register crash listeners so the
event propagates to the transport layer, where it surfaces as a broken
TCP connection — the raw signal behind the paper's perfect failure
detector.

Restart semantics extend that model with crash *recovery*: a crashed
process may be restarted, which re-arms it and fires restart listeners so
the same components can re-attach (channels reopen, failure detectors
clear their suspicion).  Volatile state is gone — whatever a process
wants to survive a crash must live in durable storage
(:mod:`repro.core.durable`), exactly as on a real machine.  Crash and
restart listeners stay registered across cycles, so a restarted process
can crash (and recover) again.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CrashedProcessError
from repro.sim.counters import PROCESS_CRASHES, PROCESS_RESTARTS
from repro.sim.env import SimEnv


class SimProcess:
    """A named, crashable — and restartable — simulated process."""

    def __init__(self, env: SimEnv, name: str):
        self.env = env
        self.name = name
        #: False between :meth:`crash` and :meth:`restart`.  A plain
        #: attribute: the fabric reads it on every frame hop.
        self.alive = True
        #: Completed crash→restart cycles (the ``process.restarts`` trace
        #: counter aggregates this across the cluster).
        self.restarts = 0
        self._crash_listeners: list[Callable[[SimProcess], None]] = []
        self._restart_listeners: list[Callable[[SimProcess], None]] = []

    def on_crash(self, listener: Callable[["SimProcess"], None]) -> None:
        """Register ``listener(process)`` to run when this process crashes."""
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[["SimProcess"], None]) -> None:
        """Register ``listener(process)`` to run when this process restarts."""
        self._restart_listeners.append(listener)

    def crash(self) -> None:
        """Crash the process.  Idempotent; listeners fire once per crash."""
        if not self.alive:
            return
        self.alive = False
        self.env.trace.count(PROCESS_CRASHES)
        self.env.trace.emit(self.env.now, "crash", self.name)
        for listener in list(self._crash_listeners):
            listener(self)

    def restart(self) -> None:
        """Restart a crashed process.  Idempotent on a live process;
        listeners fire once per restart.  Subclasses that own recoverable
        state (e.g. a server host) override this to reload it from
        durable storage before firing listeners."""
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self.env.trace.count(PROCESS_RESTARTS)
        self.env.trace.emit(self.env.now, "restart", self.name)
        for listener in list(self._restart_listeners):
            listener(self)

    def check_alive(self) -> None:
        """Raise :class:`CrashedProcessError` if this process has crashed."""
        if not self.alive:
            raise CrashedProcessError(f"process {self.name!r} has crashed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "crashed"
        return f"<SimProcess {self.name} {state}>"
