"""Switched network fabric connecting NICs.

Unicast transfer of a message from NIC *a* to NIC *b* goes through three
stages, each charged at the wire cost of the message:

1. *a*'s transmit port serialises the message (``wire_bytes / bandwidth``);
2. the fabric propagates it (``propagation_delay`` seconds, switch-like);
3. *b*'s receive port serialises it, then the delivery callback fires.

Because both ports are FIFO and the propagation delay is constant,
messages between a fixed NIC pair are delivered in order — the simulator's
stand-in for a TCP connection's FIFO guarantee.

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
        self.name = name
        self.wire = wire or WireModel()
        self.propagation_delay = propagation_delay
        #: Optional fault controller (see :mod:`repro.sim.nemesis`).  When
        #: set, every delivery is routed through it so partitions, drops,
        #: delays and duplicates can be injected per directed link.
        self.faults = None
        self._nics: dict[str, Nic] = {}
        # Multicast collision domain: currently-in-the-air frames.  Any
        # time overlap between two frames destroys both (no carrier
        # sense between independent senders on a loaded segment).
        self._mcast_in_air: list["_McastFrame"] = []
        self._backoff_rng = env.rng.stream(f"{name}.backoff")
        # Counter names are fixed per network; building them per message
        # is the same membership test and f-string every time.
        self._unicasts = scoped(name, NET_UNICASTS)
        self._wire_bytes = scoped(name, NET_WIRE_BYTES)
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
        on_sent: Callable[[], None] | None = None,
    ) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        ``deliver(message)`` fires after the receive port finishes;
        ``on_sent`` (if given) fires when the transmit port frees up.
        Nothing is allocated per frame but the argument tuple the ports
        carry: every stage is a bound method plus its arguments.
        """
        if src.network is not self or dst.network is not self:
            raise SimulationError(
                f"unicast {src.name!r} -> {dst.name!r}: both NICs must be "
                f"attached to {self.name!r}"
            )
        wire_bytes = self.wire.wire_bytes(payload_bytes)
        trace = self.env.trace
        trace.count(self._unicasts)
        trace.count(self._wire_bytes, wire_bytes)
        src.tx.submit(
            wire_bytes, self._tx_done, (src, dst, wire_bytes, message, deliver, on_sent)
        )

    def _tx_done(
        self,
        src: Nic,
        dst: Nic,
        wire_bytes: int,
        message: Any,
        deliver: DeliveryCallback,
        on_sent: Callable[[], None] | None,
    ) -> None:
        owner = src.owner
        if owner is not None and not owner.alive:
            return  # the sender died mid-transmission; the frame is lost
        if on_sent is not None:
            on_sent()
        trace = self.env.trace
        if trace.record_events:
            trace.emit(self.env.now, "net.tx", self.name, src.name, dst.name, wire_bytes)
        self._dispatch(src, dst, wire_bytes, message, deliver)

    def _dispatch(
        self, src: Nic, dst: Nic, wire_bytes: int, message: Any, deliver: DeliveryCallback
    ) -> None:
        """Hand a transmitted frame to the fabric.

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
        self.env.scheduler.schedule(
            delay, self._arrive, dst, wire_bytes, message, deliver
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
        on_sent: Callable[[], None] | None = None,
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
        self._mcast_attempt(src, list(dsts), payload_bytes, message, deliver, on_sent, 1)

    def _mcast_attempt(
        self,
        src: Nic,
        dsts: list[Nic],
        payload_bytes: int,
        message: Any,
        deliver: Callable[[Nic, Any], None],
        on_sent: Callable[[], None] | None,
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
                    on_sent,
                    attempt + 1,
                )
                return
            self.env.trace.count(self._multicasts)
            self.env.trace.count(self._wire_bytes, wire_bytes)
            if on_sent is not None:
                on_sent()
            for dst in dsts:
                self._dispatch(
                    src, dst, wire_bytes, message, lambda m, d=dst: deliver(d, m)
                )

        src.tx.submit(wire_bytes, tx_done, on_start=tx_start)

    def _check_attached(self, nic: Nic) -> None:
        if nic.network is not self:
            raise SimulationError(f"NIC {nic.name!r} is not attached to {self.name!r}")
