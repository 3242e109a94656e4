"""Full-duplex network interface model.

A :class:`Nic` owns two independent rate servers — a transmit
:class:`Port` and a receive :class:`RxPort` — matching the paper's
observation that "modern full-duplex network interfaces can receive and
send messages at the same time".  Each port serialises messages: a port
transmits (or receives) exactly one message at a time at its configured
bandwidth, which is precisely the "receive at most one message per
round" constraint of the paper's performance model, translated to
continuous time.  The transmit port is a FIFO queue its out-loop feeds
one frame at a time, with one event per frame (its finish); the receive
port is a free-time clock that books each frame's service when the
frame is sent, with one event per frame (its delivery; see
:class:`RxPort`).

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

#: In a queued entry's start-callback slot: the entry was handed over by
#: :meth:`Port.carry`.
_CARRIED = object()


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

    :meth:`carry` is the network's own hand-off: the frame's finish
    event is the network's handler itself, which does the port's
    :meth:`_finish` bookkeeping inline — one call per frame, not two.
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
        #: A tuple, replaced on registration, so that draining the port
        #: iterates it without copying.
        self.idle_callbacks: tuple[Callable[[], None], ...] = ()

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

    def carry(self, wire_bytes: int, finish: Callable[..., None], args: tuple) -> None:
        """Like :meth:`submit`, but ``finish(self, *args)`` is the finish
        event itself and must do what :meth:`_finish` does around its
        callback: the totals before, and the next frame or the idle
        callbacks after (``Network._tx_done`` does, for every unicast
        frame).  An idle port starts the frame here, not in :meth:`_start`:
        this is every healthy frame's hand-off."""
        if self.busy or self._paused:
            self._queue.append((wire_bytes, finish, args, _CARRIED))
            return
        scheduler = self._scheduler
        self.busy = True
        self._last_start = now = scheduler.now
        scheduler.schedule_at(
            now + wire_bytes * 8.0 / self.bandwidth_bps, finish, self, *args
        )

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to fire each time the port drains."""
        self.idle_callbacks += (callback,)

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
            for callback in self.idle_callbacks:
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
        end = now + wire_bytes * 8.0 / self.bandwidth_bps
        if on_start is _CARRIED:
            scheduler.schedule_at(end, callback, self, *args)
            return
        if on_start is not None:
            on_start()
        scheduler.schedule_at(end, self._finish, wire_bytes, callback, args)

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
            for idle in self.idle_callbacks:
                idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "idle"
        return f"<Port {self.name} {state} q={len(self._queue)}>"


class RxPort(Port):
    """A receive port as a free-time clock: one event per frame.

    A FIFO receive port fed by arrival events (an arrival
    ``propagation_delay`` after the sender's port finishes, then a
    serialisation ending in a finish event) is replaced by arithmetic.
    When the sender's port finishes, the network books the frame here
    (:meth:`~repro.sim.network.Network._tx_done` inlines :meth:`_book`):
    it starts at ``max(arrival, free_at)`` and its one event, at its
    end, is the delivery callback itself.  That is exact
    because under a constant propagation delay frames arrive in the
    order their transmissions finish, which is the order they are
    booked.  So every frame starts and is delivered when the staged FIFO
    port would, to the float.

    Frames that arrive any other way are *staged*: the network schedules
    their arrival (:meth:`expect` announces it), and on arrival
    :meth:`submit` books them at ``now``.  Those are nemesis-routed
    frames, multicast copies, frames to a dead or paused host, and any
    frame sent while a staged arrival is still due (``staged_until``): a
    frame booked at send time must not jump ahead of one that arrives
    before it.

    A booking is final only once it starts.  A pause, a crash
    (:meth:`purge`) or a rate change takes back every booked frame that
    has not started — its delivery event is cancelled — and puts it
    where the staged model holds it: on the wire, queued at the port, or
    dropped.  The port's totals count a frame when it is booked.
    """

    __slots__ = ("nic", "free_at", "staged_until", "_booked")

    def __init__(self, env: SimEnv, name: str, bandwidth_bps: float, nic: "Nic"):
        super().__init__(env, name, bandwidth_bps)
        self.nic = nic
        #: When the last booked frame ends.
        self.free_at = 0.0
        #: Latest arrival time of a staged frame; until it has passed,
        #: new frames are staged too.
        self.staged_until = -1.0
        #: Booked frames, in start order, dropped once they have ended:
        #: ``(start, arrival, end, wire_bytes, callback, args, event)``.
        self._booked: deque[tuple] = deque()

    def expect(self, arrival: float) -> None:
        """A staged frame will arrive at ``arrival``."""
        if arrival > self.staged_until:
            self.staged_until = arrival

    def submit(
        self,
        wire_bytes: int,
        callback: Callable[..., None],
        args: tuple = (),
        on_start: Optional[Callable[[], None]] = None,
    ) -> None:
        """A frame at the port now: queued while paused, else booked
        (``on_start`` is for transmit ports; none is ever given here)."""
        if self._paused:
            self._queue.append((wire_bytes, callback, args))
        else:
            self._book(self._scheduler.now, wire_bytes, callback, args)

    def _book(self, arrival: float, wire_bytes: int,
              callback: Callable[..., None], args: tuple) -> None:
        """Book a frame arriving at ``arrival`` (``Network._tx_done``
        inlines this for a healthy frame)."""
        scheduler = self._scheduler
        booked = self._booked
        now = scheduler.now
        while booked and booked[0][2] <= now:
            booked.popleft()  # ended: delivered, or delivered at ``now``
        free_at = self.free_at
        start = arrival if arrival >= free_at else free_at
        end = self.free_at = start + wire_bytes * 8.0 / self.bandwidth_bps
        self.bytes_total += wire_bytes
        self.messages_total += 1
        self.busy_time += end - start
        booked.append((
            start, arrival, end, wire_bytes, callback, args,
            scheduler.schedule_at(end, callback, *args),
        ))

    def _unbook(self) -> list[tuple]:
        """Take back every booked frame that has not started, in order."""
        now = self._scheduler.now
        booked = self._booked
        taken = []
        while booked and booked[-1][0] > now:
            entry = booked.pop()
            entry[6].cancel()
            self.bytes_total -= entry[3]
            self.messages_total -= 1
            self.busy_time -= entry[2] - entry[0]
            taken.append(entry)
        taken.reverse()
        self.free_at = booked[-1][2] if booked else now
        return taken

    def _restage(self, entry: tuple) -> None:
        """Put a frame still on the wire back on it: its arrival event
        meets whatever the host is by then."""
        _start, arrival, _end, wire_bytes, callback, args, _event = entry
        self.expect(arrival)
        self._scheduler.schedule_at(arrival, self._arrive, wire_bytes, callback, args)

    def _arrive(self, wire_bytes: int, callback: Callable[..., None], args: tuple) -> None:
        owner = self.nic.owner
        if owner is None or owner.alive:
            self.submit(wire_bytes, callback, args)

    def pause(self) -> None:
        """Frames in service finish; the booked rest wait, at the port or
        on the wire, for :meth:`resume`."""
        self._paused = True
        now = self._scheduler.now
        for entry in self._unbook():
            if entry[1] <= now:
                self._queue.append(entry[3:6])
            else:
                self._restage(entry)

    def resume(self) -> None:
        """Book the queued frames, in order, from now."""
        if not self._paused:
            return
        self._paused = False
        queue = self._queue
        now = self._scheduler.now
        while queue:
            self._book(now, *queue.popleft())

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """The frame in service keeps its duration; the booked rest are
        booked again at the new rate."""
        super().set_bandwidth(bandwidth_bps)
        for entry in self._unbook():
            self._book(entry[1], *entry[3:6])

    def purge(self) -> None:
        """The host crashed: frames waiting at the port die with it, the
        frame in service finishes, and frames still on the wire arrive
        to find the host down (or restarted)."""
        self._queue.clear()
        now = self._scheduler.now
        for entry in self._unbook():
            if entry[1] > now:
                self._restage(entry)


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
        self.rx = RxPort(env, f"{name}.rx", bandwidth_bps, self)
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
