"""Runtime fault controller: the cluster's nemesis.

A :class:`Nemesis` sits between the switched fabric and the receive
ports (:meth:`~repro.sim.network.Network.unicast` hands it every
transmitted frame) and decides whether, when and how often each frame
arrives.  It implements the link-level half of the fault algebra declared
by :class:`~repro.sim.faults.FaultPlan`:

* **partition / cut link** — a directed link can be *cut*.  In ``hold``
  mode (the default, TCP semantics) frames are buffered and flushed in
  FIFO order when the link heals; in ``drop`` mode (UDP semantics) they
  are silently lost.
* **drop / delay / duplicate** — per-link
  :class:`~repro.sim.wire.LinkProfile` rules roll a seeded RNG per frame.
* **slow-NIC throttle** and **pause/resume** act on the process's NICs
  directly (:meth:`~repro.sim.nic.Nic.throttle`,
  :meth:`~repro.sim.nic.Nic.pause`).

Two invariants keep injected faults inside the protocol's network model
(TCP-like connections between correct processes):

1. **Per-link FIFO.**  Once a link has ever been impaired, every arrival
   on it is clamped to be no earlier than the previously scheduled
   arrival, so delays and heals never reorder a link.
2. **The nemesis never delivers on behalf of the dead.**  A held or
   delayed frame whose *sender* has crashed by delivery time is dropped
   (a dead host cannot retransmit into a healed partition), preserving
   the failure detector's synchrony assumption that no frame from a
   crashed server lands after reconfiguration.

Everything the nemesis does is counted in the trace
(``nemesis.drops``, ``nemesis.dup_deliveries``, ``nemesis.delayed``,
``nemesis.held``, ...), which is how the chaos harness proves a fault
type was actually exercised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ConfigurationError
from repro.sim.counters import (
    NEMESIS_CLOCK_SKEWS,
    NEMESIS_CUTS,
    NEMESIS_CUT_DROPS,
    NEMESIS_DELAYED,
    NEMESIS_DROPS,
    NEMESIS_DUP_DELIVERIES,
    NEMESIS_HEALS,
    NEMESIS_HELD,
    NEMESIS_HELD_DELIVERED,
    NEMESIS_PARTITIONS,
    NEMESIS_PAUSES,
    NEMESIS_POSTHUMOUS_DROPS,
    NEMESIS_RULES,
    NEMESIS_THROTTLES,
)
from repro.sim.env import SimEnv
from repro.sim.nic import Nic
from repro.sim.wire import LinkProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import Network
    from repro.sim.topology import ClusterTopology

#: Directed link key: (source process name, destination process name).
Link = tuple[str, str]


class _LinkState:
    """Mutable fault state of one directed link."""

    __slots__ = ("cut", "hold_mode", "held", "rules")

    def __init__(self) -> None:
        self.cut = False
        self.hold_mode = True
        self.held: list[tuple] = []
        self.rules: dict[int, LinkProfile] = {}

    @property
    def idle(self) -> bool:
        return not self.cut and not self.held and not self.rules


class Nemesis:
    """Composable link/NIC fault injector for one simulated cluster.

    Links are identified by *process* names (``"s0"``, ``"c3"``); a cut
    of ``("s0", "s1")`` affects s0→s1 traffic on whichever network routes
    it.  All mutators take effect immediately; scheduling them at future
    times is :meth:`~repro.sim.faults.FaultPlan.apply`'s job.
    """

    def __init__(self, env: SimEnv, topo: "ClusterTopology | None" = None):
        self.env = env
        self.topo = topo
        self._links: dict[Link, _LinkState] = {}
        #: Latest scheduled arrival per link, for the FIFO clamp.  A link
        #: enters this map on first impairment and stays, so a delayed
        #: frame can never be overtaken after the fault window closes.
        self._fifo: dict[Link, float] = {}
        self._rng = env.rng.stream("nemesis")
        self._rule_seq = 0
        #: Per-process local-clock offsets (seconds added to the fabric
        #: clock).  Consumed by clock-reading runtimes — the heartbeat
        #: driver's trackers and lease freshness checks — never by the
        #: fabric itself: frames still travel on simulated time; only
        #: what a process *believes* the time to be is skewed.
        self._clock_offsets: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Frame routing (called by Network for every transmitted frame)
    # ------------------------------------------------------------------

    def route(
        self,
        network: "Network",
        src: Nic,
        dst: Nic,
        wire_bytes: int,
        message: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        """Decide the fate of one transmitted frame."""
        fifo = self._fifo
        link = (src.process_name, dst.process_name) if fifo else None
        if link not in fifo:
            # Never impaired (every faulted link has a FIFO entry, and
            # with none at all the key is not even built): identical to
            # an un-faulted network, and no RNG draw, so healthy links
            # never perturb determinism.
            network.schedule_arrival(
                network.propagation_delay, dst, wire_bytes, message, deliver
            )
            return
        state = self._links.get(link)
        if state is None:
            extra, copies = 0.0, 1
        elif state.cut:
            if state.hold_mode:
                state.held.append((network, src, dst, wire_bytes, message, deliver))
                self.env.trace.count(NEMESIS_HELD)
            else:
                # Counted separately from probabilistic drops so coverage
                # reports can attribute the loss to the cut.
                self.env.trace.count(NEMESIS_CUT_DROPS)
            return
        else:
            extra, copies = 0.0, 1
            for profile in state.rules.values():
                if profile.drop_p and self._rng.random() < profile.drop_p:
                    self.env.trace.count(NEMESIS_DROPS)
                    return
                extra += profile.extra_delay
                if profile.jitter:
                    extra += self._rng.random() * profile.jitter
                if profile.dup_p and self._rng.random() < profile.dup_p:
                    copies += 1
        if extra > 0.0:
            self.env.trace.count(NEMESIS_DELAYED)
        arrival = self.env.now + network.propagation_delay + extra
        self._deliver_at(link, network, src, dst, wire_bytes, message, deliver, arrival)
        for _ in range(copies - 1):
            # The duplicate trails the original by at least one more
            # fabric hop; the FIFO clamp keeps it behind the original.
            self.env.trace.count(NEMESIS_DUP_DELIVERIES)
            self._deliver_at(
                link, network, src, dst, wire_bytes, message, deliver,
                arrival + network.propagation_delay,
            )

    def _deliver_at(
        self,
        link: Link,
        network: "Network",
        src: Nic,
        dst: Nic,
        wire_bytes: int,
        message: Any,
        deliver: Callable[[Any], None],
        arrival: float,
    ) -> None:
        arrival = max(arrival, self._fifo.get(link, 0.0))
        self._fifo[link] = arrival

        def fire() -> None:
            if src.owner is not None and not src.owner.alive:
                self.env.trace.count(NEMESIS_POSTHUMOUS_DROPS)
                return
            network.deliver_now(dst, wire_bytes, message, deliver)

        self.env.scheduler.schedule_at(arrival, fire)

    # ------------------------------------------------------------------
    # Partitions and link cuts
    # ------------------------------------------------------------------

    def cut(self, src: str, dst: str, mode: str = "hold") -> None:
        """Cut the directed link src→dst (asymmetric by design)."""
        if mode not in ("hold", "drop"):
            raise ConfigurationError(f"unknown cut mode {mode!r}")
        state = self._state((src, dst))
        state.cut = True
        state.hold_mode = mode == "hold"
        self.env.trace.count(NEMESIS_CUTS)
        self.env.trace.emit(self.env.now, "nemesis.cut", src, dst, mode)

    def heal(self, src: str, dst: str) -> None:
        """Heal the directed link src→dst, flushing held frames in order."""
        link = (src, dst)
        state = self._links.get(link)
        if state is None or not state.cut:
            return
        state.cut = False
        held, state.held = state.held, []
        for network, src_nic, dst_nic, wire_bytes, message, deliver in held:
            self.env.trace.count(NEMESIS_HELD_DELIVERED)
            self._deliver_at(
                link, network, src_nic, dst_nic, wire_bytes, message, deliver,
                self.env.now + network.propagation_delay,
            )
        self.env.trace.emit(self.env.now, "nemesis.heal", src, dst)
        self._gc(link)

    def partition(self, groups: Iterable[Iterable[str]], mode: str = "hold") -> None:
        """Cut every link between processes in different groups (both
        directions).  Processes not listed in any group are unaffected."""
        self.env.trace.count(NEMESIS_PARTITIONS)
        for a, b in self._cross_links(groups):
            self.cut(a, b, mode)

    def heal_partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Undo :meth:`partition` for the same groups."""
        self.env.trace.count(NEMESIS_HEALS)
        for a, b in self._cross_links(groups):
            self.heal(a, b)

    @staticmethod
    def _cross_links(groups: Iterable[Iterable[str]]) -> list[Link]:
        sets = [list(group) for group in groups]
        links: list[Link] = []
        for i, group_a in enumerate(sets):
            for group_b in sets[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        links.append((a, b))
                        links.append((b, a))
        return links

    # ------------------------------------------------------------------
    # Per-link loss/delay/duplication rules
    # ------------------------------------------------------------------

    def add_link_rule(
        self, src: str, dst: str, profile: LinkProfile, symmetric: bool = False
    ) -> int:
        """Attach ``profile`` to src→dst (and dst→src when symmetric).
        Returns a rule id for :meth:`remove_link_rule`."""
        profile.validate()
        self._rule_seq += 1
        rule_id = self._rule_seq
        self._state((src, dst)).rules[rule_id] = profile
        if symmetric:
            self._state((dst, src)).rules[rule_id] = profile
        self.env.trace.count(NEMESIS_RULES)
        return rule_id

    def remove_link_rule(self, src: str, dst: str, rule_id: int) -> None:
        """Detach a rule installed by :meth:`add_link_rule`."""
        for link in ((src, dst), (dst, src)):
            state = self._links.get(link)
            if state is not None:
                state.rules.pop(rule_id, None)
                self._gc(link)

    # ------------------------------------------------------------------
    # NIC-level faults
    # ------------------------------------------------------------------

    def throttle(self, process: str, factor: float) -> None:
        """Run every NIC of ``process`` at ``1/factor`` of its rate."""
        self.env.trace.count(NEMESIS_THROTTLES)
        for nic in self._nics_of(process):
            nic.throttle(factor)

    def unthrottle(self, process: str) -> None:
        """Restore nameplate bandwidth on every NIC of ``process``."""
        for nic in self._nics_of(process):
            nic.unthrottle()

    def pause(self, process: str) -> None:
        """Stop all NIC I/O of ``process`` (a stop-the-world pause)."""
        self.env.trace.count(NEMESIS_PAUSES)
        self.env.trace.emit(self.env.now, "nemesis.pause", process)
        for nic in self._nics_of(process):
            nic.pause()

    def resume(self, process: str) -> None:
        """Resume NIC I/O of ``process``; queued frames flow again."""
        self.env.trace.emit(self.env.now, "nemesis.resume", process)
        for nic in self._nics_of(process):
            nic.resume()

    # ------------------------------------------------------------------
    # Clock faults
    # ------------------------------------------------------------------

    def clock_skew(self, process: str, offset: float) -> None:
        """Offset ``process``'s local clock by ``offset`` seconds.

        Positive offsets run the clock fast (timeouts and lease expiries
        fire early — the wrong-suspicion attack), negative offsets run
        it slow (leases appear fresh longer — the attack on the
        ``2*clock_drift_bound`` charge in the wait-out arithmetic).
        The offset is absolute, not cumulative: a second call replaces
        the first, and ``0.0`` restores an honest clock.
        """
        self.env.trace.count(NEMESIS_CLOCK_SKEWS)
        self.env.trace.emit(self.env.now, "nemesis.clock_skew", process, offset)
        self._clock_offsets[process] = offset

    def clock_offset(self, process: str) -> float:
        """Current local-clock offset of ``process`` (0.0 if honest)."""
        return self._clock_offsets.get(process, 0.0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _state(self, link: Link) -> _LinkState:
        state = self._links.get(link)
        if state is None:
            state = self._links[link] = _LinkState()
            self._fifo.setdefault(link, 0.0)
        return state

    def _gc(self, link: Link) -> None:
        state = self._links.get(link)
        if state is not None and state.idle:
            del self._links[link]  # the FIFO clamp entry stays on purpose

    def _nics_of(self, process: str) -> list[Nic]:
        if self.topo is None:
            raise ConfigurationError(
                "this nemesis has no topology; NIC-level faults unavailable"
            )
        nics = self.topo.nics.get(process)
        if not nics:
            raise ConfigurationError(f"unknown process {process!r}")
        return list(nics.values())
