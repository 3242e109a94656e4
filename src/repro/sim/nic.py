"""Full-duplex network interface model.

A :class:`Nic` owns two independent :class:`Port` rate servers — transmit
and receive — matching the paper's observation that "modern full-duplex
network interfaces can receive and send messages at the same time".  Each
port serialises messages: a port transmits (or receives) exactly one
message at a time at its configured bandwidth, which is precisely the
"receive at most one message per round" constraint of the paper's
performance model, translated to continuous time.

The ring communication pattern keeps each server's ports collision-free;
quorum/multicast patterns overload the receive ports, which is how the
simulator reproduces the paper's Figure 1 argument.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.env import SimEnv

#: 100 Mbit/s fast ethernet, the paper's testbed NIC speed.
FAST_ETHERNET_BPS = 100_000_000.0


class Port:
    """A FIFO rate server: one message at a time at ``bandwidth_bps``.

    ``submit(wire_bytes, callback, args)`` enqueues a message; when the
    port gets to it, the port stays busy for ``wire_bytes * 8 /
    bandwidth`` seconds and then invokes ``callback(*args)`` — a callable
    and its arguments rather than a closure, so the per-frame callers
    allocate nothing to be called back.  Callers may also register an
    idle callback, which fires whenever the port drains — the simulator
    uses this to implement the protocol's *send slot* (the pseudocode's
    ``queue handler`` task runs when the outgoing link is free).
    """

    __slots__ = (
        "_scheduler",
        "name",
        "bandwidth_bps",
        "_queue",
        "busy",
        "_paused",
        "bytes_total",
        "messages_total",
        "busy_time",
        "_last_start",
        "idle_callbacks",
    )

    def __init__(self, env: SimEnv, name: str, bandwidth_bps: float):
        self._scheduler = env.scheduler
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self._queue: deque[tuple] = deque()
        #: True while a message is being serialised.
        self.busy = False
        self._paused = False
        self.bytes_total = 0
        self.messages_total = 0
        self.busy_time = 0.0
        self._last_start = 0.0
        self.idle_callbacks: list[Callable[[], None]] = []

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def submit(
        self,
        wire_bytes: int,
        callback: Callable[..., None],
        args: tuple = (),
        on_start: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue a message of ``wire_bytes`` for service.

        ``on_start`` (if given) fires when serialisation begins — the
        multicast collision model uses it to detect overlapping frames.
        """
        if self.busy or self._paused:
            self._queue.append((wire_bytes, callback, args, on_start))
        else:
            # An idle, running port has an empty queue: serve at once.
            self._start(wire_bytes, callback, args, on_start)

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to fire each time the port drains."""
        self.idle_callbacks.append(callback)

    def pause(self) -> None:
        """Stop serving the queue (a stop-the-world pause of the host).

        The message currently being serialised finishes — NIC hardware
        completes the frame in flight — but nothing further starts until
        :meth:`resume`.  Submissions while paused simply queue up.
        """
        self._paused = True

    def resume(self) -> None:
        """Resume serving; queued messages flow again in FIFO order."""
        if not self._paused:
            return
        self._paused = False
        if self.busy:
            return
        if self._queue:
            self._start(*self._queue.popleft())
        else:
            # Wake out-loops that went idle against a paused port.
            for callback in list(self.idle_callbacks):
                callback()

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the service rate (slow-NIC throttle).

        Takes effect from the next message; the one currently being
        serialised keeps its original duration.
        """
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be > 0, got {bandwidth_bps}")
        self.bandwidth_bps = bandwidth_bps

    def purge(self) -> None:
        """Drop every queued (not yet started) message.

        Used when the owning process crashes: data sitting in socket
        buffers dies with the host, while the message currently being
        serialised finishes (and is dropped downstream by the owner-alive
        check in :class:`~repro.sim.network.Network`).
        """
        self._queue.clear()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this port spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def _start(
        self,
        wire_bytes: int,
        callback: Callable[..., None],
        args: tuple,
        on_start: Optional[Callable[[], None]],
    ) -> None:
        scheduler = self._scheduler
        self.busy = True
        self._last_start = now = scheduler.now
        if on_start is not None:
            on_start()
        scheduler.schedule_at(
            now + wire_bytes * 8.0 / self.bandwidth_bps,
            self._finish, wire_bytes, callback, args,
        )

    def _finish(self, wire_bytes: int, callback: Callable[..., None], args: tuple) -> None:
        self.bytes_total += wire_bytes
        self.messages_total += 1
        self.busy_time += self._scheduler.now - self._last_start
        callback(*args)
        if self._paused:
            self.busy = False
        elif self._queue:
            self._start(*self._queue.popleft())
        else:
            self.busy = False
            for idle in list(self.idle_callbacks):
                idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "idle"
        return f"<Port {self.name} {state} q={len(self._queue)}>"


class Nic:
    """A full-duplex NIC: independent transmit and receive ports."""

    def __init__(
        self,
        env: SimEnv,
        name: str,
        bandwidth_bps: float = FAST_ETHERNET_BPS,
    ):
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        #: Nameplate rate; :meth:`throttle` scales from this, so repeated
        #: throttles do not compound.
        self.rated_bps = bandwidth_bps
        #: Owning process name (NICs are named ``{process}@{network}``);
        #: precomputed because the nemesis keys links by it per delivery.
        self.process_name = name.split("@", 1)[0]
        self.tx = Port(env, f"{name}.tx", bandwidth_bps)
        self.rx = Port(env, f"{name}.rx", bandwidth_bps)
        #: Set by Network.attach; a NIC belongs to exactly one network.
        self.network: Optional[Any] = None
        #: Optional owning process; when it is dead, the network drops
        #: traffic to and from this NIC (crash fidelity).
        self.owner: Optional[Any] = None

    def throttle(self, factor: float) -> None:
        """Run both ports at ``rated_bps / factor`` (slow-NIC fault)."""
        if factor <= 0:
            raise ValueError(f"throttle factor must be > 0, got {factor}")
        self.set_bandwidth(self.rated_bps / factor)

    def unthrottle(self) -> None:
        """Restore the nameplate bandwidth."""
        self.set_bandwidth(self.rated_bps)

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Set the current rate of both ports (next message onwards)."""
        self.bandwidth_bps = bandwidth_bps
        self.tx.set_bandwidth(bandwidth_bps)
        self.rx.set_bandwidth(bandwidth_bps)

    def pause(self) -> None:
        """Pause both ports (the host stops doing I/O)."""
        self.tx.pause()
        self.rx.pause()

    def resume(self) -> None:
        """Resume both ports."""
        self.rx.resume()
        self.tx.resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic {self.name} @{self.bandwidth_bps/1e6:.0f}Mbps>"
