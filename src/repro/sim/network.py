"""Switched network fabric connecting NICs.

Unicast transfer of a message from NIC *a* to NIC *b* is charged three
times at the wire cost of the message, in two events:

1. *a*'s transmit port serialises the message (``wire_bytes / bandwidth``);
   its finish is the first event;
2. the fabric propagates it (``propagation_delay`` seconds, switch-like);
3. *b*'s receive port serialises it, then the delivery callback fires —
   the second event.  The receive port is booked when the transmit port
   finishes: the frame starts at ``max(arrival, free time)`` (see
   :class:`~repro.sim.nic.RxPort`), which is what a FIFO port serving
   arrivals would do, because under a constant delay frames arrive in
   the order they finish transmitting.

A frame the nemesis routes, a multicast copy, and a frame to a paused or
dead host take the staged path instead: an arrival event, then the
receive port.  Because both ports are FIFO and the propagation delay is
constant, messages between a fixed NIC pair are delivered in order — the
simulator's stand-in for a TCP connection's FIFO guarantee.

The fabric also offers an *ethernet multicast* primitive used by the
naive write-all baseline: one transmit occupies the sender's port once,
but overlapping multicasts on the same segment collide and are
retransmitted after exponential backoff, reproducing the collision
behaviour the paper blames for the poor throughput of multicast-based
write-all schemes under load.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.counters import (
    NET_COLLISIONS,
    NET_MULTICASTS,
    NET_MULTICAST_DROPS,
    NET_UNICASTS,
    NET_WIRE_BYTES,
    scoped,
)
from repro.sim.env import SimEnv
from repro.sim.nic import Nic
from repro.sim.wire import WireModel

#: Propagation + switching delay of a LAN hop (~60 us: store-and-forward
#: switch plus cabling, the right order of magnitude for fast ethernet).
DEFAULT_PROPAGATION_DELAY = 60e-6

#: Ethernet slot time in *bit times*: backoff waits are multiples of
#: ``ETHERNET_SLOT_BITS / bandwidth`` seconds (5.12 us at 100 Mbit/s).
ETHERNET_SLOT_BITS = 512.0

#: Give up after this many retransmissions of one multicast frame.
MAX_MULTICAST_ATTEMPTS = 16

DeliveryCallback = Callable[[Any], None]


class _McastFrame:
    """Bookkeeping for one multicast frame in the collision domain."""

    __slots__ = ("start", "end", "dead")

    def __init__(self) -> None:
        self.start = 0.0
        self.end = 0.0
        self.dead = False


class Network:
    """A single switched LAN segment.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Used in trace counters (``{name}.unicasts`` etc.).
    wire:
        The wire cost model shared by every NIC on this segment.
    propagation_delay:
        Fabric latency between transmit completion and receive start.
    """

    def __init__(
        self,
        env: SimEnv,
        name: str = "net",
        wire: WireModel | None = None,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    ):
        self.env = env
        self._scheduler = env.scheduler
        self.name = name
        self.wire = wire or WireModel()
        self.propagation_delay = propagation_delay
        #: Optional fault controller (see :mod:`repro.sim.nemesis`).  When
        #: set, every delivery on a link it has ever impaired is routed
        #: through it so partitions, drops, delays and duplicates can be
        #: injected per directed link.
        self.faults = None
        self._nics: dict[str, Nic] = {}
        # Multicast collision domain: currently-in-the-air frames.  Any
        # time overlap between two frames destroys both (no carrier
        # sense between independent senders on a loaded segment).
        self._mcast_in_air: list["_McastFrame"] = []
        self._backoff_rng = env.rng.stream(f"{name}.backoff")
        # Counter names are fixed per network; building them per message
        # is the same membership test and f-string every time.
        self.counter_unicasts = scoped(name, NET_UNICASTS)
        self.counter_wire_bytes = scoped(name, NET_WIRE_BYTES)
        self._multicasts = scoped(name, NET_MULTICASTS)
        self._multicast_drops = scoped(name, NET_MULTICAST_DROPS)
        self._collisions = scoped(name, NET_COLLISIONS)

    def attach(self, nic: Nic) -> None:
        """Attach ``nic`` to this segment."""
        if nic.name in self._nics:
            raise SimulationError(f"NIC {nic.name!r} already attached to {self.name!r}")
        if nic.network is not None:
            raise SimulationError(f"NIC {nic.name!r} already attached to another network")
        self._nics[nic.name] = nic
        nic.network = self

    def nics(self) -> list[Nic]:
        """All NICs attached to this segment."""
        return list(self._nics.values())

    # ------------------------------------------------------------------
    # Unicast
    # ------------------------------------------------------------------

    def unicast(
        self,
        src: Nic,
        dst: Nic,
        payload_bytes: int,
        message: Any,
        deliver: DeliveryCallback,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        ``deliver(message)`` fires after the receive port finishes.
        Nothing is allocated per frame but the argument tuples the ports
        carry: every stage is a bound method plus its arguments.
        """
        if src.network is not self or dst.network is not self:
            raise SimulationError(
                f"unicast {src.name!r} -> {dst.name!r}: both NICs must be "
                f"attached to {self.name!r}"
            )
        wire_bytes = self.wire.wire_bytes(payload_bytes)
        trace = self.env.trace
        trace.count(self.counter_unicasts)
        trace.count(self.counter_wire_bytes, wire_bytes)
        src.tx.carry(
            wire_bytes, self._tx_done, (src, dst, wire_bytes, message, deliver)
        )

    def _tx_done(
        self,
        port,
        src: Nic,
        dst: Nic,
        wire_bytes: int,
        message: Any,
        deliver: DeliveryCallback,
    ) -> None:
        """The transmit ``port`` finished the frame (``Port.carry``): hand
        it to the fabric, then let the port move on."""
        scheduler = self._scheduler
        now = scheduler.now
        port.bytes_total += wire_bytes
        port.messages_total += 1
        port.busy_time += now - port._last_start
        sender = src.owner
        # A sender that died mid-transmission lost the frame.
        if sender is None or sender.alive:
            trace = self.env.trace
            if trace.record_events:
                trace.emit(now, "net.tx", self.name, src.name, dst.name, wire_bytes)
            faults = self.faults
            arrival = now + self.propagation_delay
            rx = dst.rx
            receiver = dst.owner
            if faults is not None and faults.impaired and (
                (src.process_name, dst.process_name) in faults.impaired
            ):
                faults.route(self, src, dst, wire_bytes, message, deliver)
            elif rx._paused or rx.staged_until >= now or (
                receiver is not None and not receiver.alive
            ):
                # Paused, down, or a staged frame may still arrive before
                # it: the arrival its staged path would schedule.
                rx.expect(arrival)
                scheduler.schedule_at(arrival, self._arrive, dst, wire_bytes, message, deliver)
            else:
                # A link the nemesis never impaired: book the receive port
                # now (RxPort._book, inlined: every healthy frame's booking).
                if trace.record_events:
                    trace.emit(arrival, "net.rx", self.name, dst.name, wire_bytes)
                booked = rx._booked
                while booked and booked[0][2] <= now:
                    booked.popleft()  # ended: delivered, or delivered at ``now``
                free_at = rx.free_at
                start = arrival if arrival >= free_at else free_at
                end = rx.free_at = start + wire_bytes * 8.0 / rx.bandwidth_bps
                rx.bytes_total += wire_bytes
                rx.messages_total += 1
                rx.busy_time += end - start
                booked.append((
                    start, arrival, end, wire_bytes, deliver, (message,),
                    scheduler.schedule_at(end, deliver, message),
                ))
        # Port._finish, after its callback: the next frame, or idle.
        if port._paused:
            port.busy = False
        elif port._queue:
            port._start(*port._queue.popleft())
        else:
            port.busy = False
            for idle in port.idle_callbacks:
                idle()

    def _dispatch(
        self, src: Nic, dst: Nic, wire_bytes: int, message: Any, deliver: DeliveryCallback
    ) -> None:
        """Hand a transmitted multicast copy to the fabric.

        Without a fault controller this is a plain propagation-delayed
        arrival; with one, the controller decides whether/when/how often
        the frame arrives (partition, drop, delay, duplicate).
        """
        if self.faults is None:
            self.schedule_arrival(self.propagation_delay, dst, wire_bytes, message, deliver)
        else:
            self.faults.route(self, src, dst, wire_bytes, message, deliver)

    def schedule_arrival(
        self, delay: float, dst: Nic, wire_bytes: int, message: Any,
        deliver: DeliveryCallback,
    ) -> None:
        """Schedule the receive-port stage ``delay`` seconds from now."""
        arrival = self._scheduler.now + delay
        dst.rx.expect(arrival)
        self._scheduler.schedule_at(
            arrival, self._arrive, dst, wire_bytes, message, deliver
        )

    def deliver_now(
        self, dst: Nic, wire_bytes: int, message: Any, deliver: DeliveryCallback
    ) -> None:
        """Fault-controller entry point: start the receive-port stage now."""
        self._arrive(dst, wire_bytes, message, deliver)

    def _arrive(
        self, dst: Nic, wire_bytes: int, message: Any, deliver: DeliveryCallback
    ) -> None:
        owner = dst.owner
        if owner is not None and not owner.alive:
            return  # receiver is down; the switch drops the frame
        trace = self.env.trace
        if trace.record_events:
            trace.emit(self.env.now, "net.rx", self.name, dst.name, wire_bytes)
        dst.rx.submit(wire_bytes, deliver, (message,))

    # ------------------------------------------------------------------
    # Ethernet multicast with collisions
    # ------------------------------------------------------------------

    def multicast(
        self,
        src: Nic,
        dsts: list[Nic],
        payload_bytes: int,
        message: Any,
        deliver: Callable[[Nic, Any], None],
    ) -> None:
        """Ethernet-style multicast: one transmit, every receiver listens.

        If the frame's airtime overlaps another multicast on this segment,
        *both* are lost and retransmitted after an exponentially growing
        random backoff — the collision behaviour of a shared ethernet
        segment that the paper identifies as the throughput killer for
        broadcast-based write-all algorithms.
        """
        self._check_attached(src)
        for dst in dsts:
            self._check_attached(dst)
        self._mcast_attempt(src, list(dsts), payload_bytes, message, deliver, 1)

    def _mcast_attempt(
        self,
        src: Nic,
        dsts: list[Nic],
        payload_bytes: int,
        message: Any,
        deliver: Callable[[Nic, Any], None],
        attempt: int,
    ) -> None:
        if attempt > MAX_MULTICAST_ATTEMPTS:
            # Ethernet gives up after 16 attempts and drops the frame.
            # Under heavy concurrent-multicast load this is the norm —
            # the collision collapse the paper's introduction describes.
            self.env.trace.count(self._multicast_drops)
            return
        wire_bytes = self.wire.wire_bytes(payload_bytes)
        frame = _McastFrame()

        def tx_start() -> None:
            now = self.env.now
            frame.start = now
            frame.end = now + wire_bytes * 8.0 / src.bandwidth_bps
            # Any frame still in the air overlaps us: all involved die.
            self._mcast_in_air = [f for f in self._mcast_in_air if f.end > now]
            if self._mcast_in_air:
                for other in self._mcast_in_air:
                    other.dead = True
                frame.dead = True
                self.env.trace.count(self._collisions)
            self._mcast_in_air.append(frame)

        def tx_done() -> None:
            self._mcast_in_air = [
                f for f in self._mcast_in_air if f is not frame and f.end > self.env.now
            ]
            if frame.dead:
                slots = self._backoff_rng.randrange(1, 2 ** min(attempt, 10))
                slot_time = ETHERNET_SLOT_BITS / src.bandwidth_bps
                self.env.scheduler.schedule(
                    slots * slot_time,
                    self._mcast_attempt,
                    src,
                    dsts,
                    payload_bytes,
                    message,
                    deliver,
                    attempt + 1,
                )
                return
            self.env.trace.count(self._multicasts)
            self.env.trace.count(self.counter_wire_bytes, wire_bytes)
            for dst in dsts:
                self._dispatch(
                    src, dst, wire_bytes, message, lambda m, d=dst: deliver(d, m)
                )

        src.tx.submit(wire_bytes, tx_done, on_start=tx_start)

    def _check_attached(self, nic: Nic) -> None:
        if nic.network is not self:
            raise SimulationError(f"NIC {nic.name!r} is not attached to {self.name!r}")
