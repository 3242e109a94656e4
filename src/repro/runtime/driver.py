"""The server control plane, written once: a sans-I/O host driver.

Every runtime hosts the same :class:`~repro.core.server.ServerProtocol`
handlers; everything *around* them that is not moving bytes — the
heartbeat detector, read-lease grants and validity, suspicion hand-off,
the grace-delayed view proposal and its watchdog, the old-epoch lease
wait-out, the rejoin announcement pump — lives in :class:`ServerDriver`.
The driver touches no socket, scheduler or clock.  It reaches the
outside world only through the :class:`DriverHost` capability object its
host supplies, so the simulator (:mod:`repro.runtime.sim_net`, also the
sharded hosts of :mod:`repro.runtime.sharded`) and the TCP runtime
(:mod:`repro.runtime.asyncio_net`) run one timeline instead of two
hand-kept copies of it.  See docs/runtime.md.

One driver serves one host *incarnation*: a restart builds a fresh one,
and :meth:`ServerDriver.stop` (called at crash) makes every timer the old
one armed inert.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Protocol, Sequence

from repro.core.messages import Heartbeat, LeaseGrant, LeaseRevoke
from repro.core.server import ServerProtocol
from repro.fd.heartbeat import HeartbeatConfig, HeartbeatTracker, ReadLease
from repro.runtime.interface import Reply

#: Rejoin announcement retry cadence: a rejoining server re-announces
#: itself (to the next candidate sponsor each attempt) until a
#: reconfiguration commit resumes it.  The initial period comfortably
#: exceeds a healthy reconfiguration round trip, and the backoff keeps a
#: rejoiner stuck behind a long fault window from spraying announcements
#: that would each trigger a redundant reconfiguration at heal time.
REJOIN_RETRY_INITIAL = 0.25
REJOIN_RETRY_MAX = 1.0

#: Events reported through :meth:`DriverHost.count`, each with the peer
#: it concerns.  The host owns the counter registry and maps them.
SUSPECTED = "suspected"
UNSUSPECTED = "unsuspected"
LEASE_GRANTED = "lease_granted"
LEASE_RENEWED = "lease_renewed"
LEASE_REVOKED = "lease_revoked"
LEASE_EXPIRED = "lease_expired"


class DriverHost(Protocol):
    """What a runtime lends the driver: the whole I/O surface."""

    #: The protocol instances hosted right now (one per block on a
    #: sharded host), kept current by the host — a tuple it replaces,
    #: or a live view of its block map — so the per-step poll reads it
    #: without building anything.
    hosted: Collection[ServerProtocol]

    def now(self) -> float:
        """This server's local clock (skewed, if the runtime skews it)."""

    def set_timer(self, delay: float, callback: Callable[..., None], *args) -> None:
        """Call ``callback(*args)`` once, ``delay`` seconds from now."""

    def send_raw(self, peer: int, message) -> None:
        """Send one message to ``peer`` *outside* the reliable session
        layer, best effort: beacons and lease traffic are freshness
        signals, and a retransmitted one would be a forged signal."""

    def post(self, replies: Sequence[Reply]) -> None:
        """Hand client replies to the data plane and wake the ring
        sender (handlers may have queued ring or directed messages)."""

    def after_step(self) -> None:
        """The host's post-handler hook — the one it runs itself after
        feeding a message in; it ends in :meth:`ServerDriver.poll`."""

    def count(self, event: str, peer: int) -> None:
        """Bump the counter for ``event`` (a constant of this module)."""

    def rejoin_sponsors(self, proto: ServerProtocol) -> Sequence[int]:
        """Servers worth announcing ``proto``'s rejoin to, in a stable
        order; empty when none is reachable right now (the pump then
        waits and asks again)."""


class ServerDriver:
    """Per-incarnation control plane of one server host.

    ``heartbeat`` is ``None`` under the perfect detector, where only the
    rejoin pump has work.  ``trusting`` seeds the tracker's silence
    clocks: a cold start trusts its peers for one timeout; a restart is
    *suspect-first* — a snapshot carries no liveness information, so
    until a peer's heartbeat actually arrives the restarted server must
    not vouch for it (a trusting tracker would let it propose
    re-admitting a peer that died while it was down, and the token would
    die at the corpse).  Live peers clear within one heartbeat period.
    """

    def __init__(
        self,
        host: DriverHost,
        server_id: int,
        peers: Sequence[int],
        heartbeat: Optional[HeartbeatConfig],
        read_leases: bool,
        trusting: bool,
    ):
        self._host = host
        self.server_id = server_id
        self.peers = list(peers)
        self.heartbeat = heartbeat
        self._stopped = False
        self._pumping = False
        self._reconcile_armed = False
        self.tracker: Optional[HeartbeatTracker] = None
        #: Holder-side lease; volatile by design (docs/leases.md): a new
        #: incarnation re-earns every grant from scratch.
        self.lease: Optional[ReadLease] = None
        #: Last (valid, epoch) pushed, so only transitions — not every
        #: periodic check — reach the state machines.
        self._lease_pushed: Optional[tuple[bool, int]] = None
        self._granting = False
        if heartbeat is not None:
            # Suspect-first is expressed through the silence clocks:
            # pre-aged past the timeout, every peer trips the first
            # check, and only an actual heartbeat rehabilitates it.
            now = host.now()
            self.tracker = HeartbeatTracker(
                self.peers,
                heartbeat.timeout,
                now=now if trusting else now - heartbeat.timeout - 1e-9,
                imperfect=True,
            )
            if read_leases:
                self.lease = ReadLease(heartbeat.lease_duration)
                self._granting = heartbeat.grant_leases

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Send the first beacon, arm the detector and — for a host that
        came up rejoining — begin announcing."""
        if self.heartbeat is not None:
            self._beacon()
            self._host.set_timer(self.heartbeat.check_interval, self._check)
        self._begin_rejoin()

    def stop(self) -> None:
        """The incarnation ended (crash): pending timers become inert."""
        self._stopped = True

    # -- detector and leases: outbound ---------------------------------

    def _beacon(self) -> None:
        if self._stopped:
            return
        protos = self._host.hosted
        for peer in self.peers:
            self._host.send_raw(peer, Heartbeat(self.server_id))
            if self._granting and all(p.may_grant_lease(peer) for p in protos):
                # Stamped with the grantor's clock at *send* time, so a
                # grant held in a partition arrives already expired.
                self._host.send_raw(
                    peer, LeaseGrant(self.server_id, self._epoch(), self._host.now())
                )
        self._host.set_timer(self.heartbeat.period, self._beacon)

    def _epoch(self) -> int:
        """The epoch lease traffic is stamped with: the oldest installed
        across hosted instances (can only under-claim, strictly safe)."""
        return min(proto.installed_epoch for proto in self._host.hosted)

    def _check(self) -> None:
        if self._stopped:
            return
        for peer in self.tracker.check(self._host.now()):
            self._host.count(SUSPECTED, peer)
            self._verdict(peer, suspect=True)
            if self._granting:
                # Best-effort prompt revocation: the holder's freshness
                # clock is the safety mechanism; this only shortens the
                # serving window when the revoke gets through.
                self._host.send_raw(peer, LeaseRevoke(self.server_id, self._epoch()))
        # Grants expire by clock, not by any arriving message, so the
        # periodic check is what notices.
        self._sync_lease(expiry=True)
        self._host.set_timer(self.heartbeat.check_interval, self._check)

    def _verdict(self, peer: int, suspect: bool) -> None:
        """Feed the detector's verdict on ``peer`` to every hosted
        instance (server-level suspicion pauses every block's register)."""
        for proto in self._host.hosted:
            self._host.post(
                proto.on_suspect(peer) if suspect else proto.on_unsuspect(peer)
            )
        self._host.after_step()

    # -- detector and leases: inbound ----------------------------------

    def on_raw(self, message) -> None:
        """A message of the raw (un-sessioned) stream arrived."""
        if self._stopped or self.tracker is None:
            return
        if isinstance(message, Heartbeat):
            if self.tracker.heard_from(message.server_id, self._host.now()):
                self._host.count(UNSUSPECTED, message.server_id)
                self._verdict(message.server_id, suspect=False)
        elif self.lease is not None and isinstance(message, (LeaseGrant, LeaseRevoke)):
            # The required set is refreshed *before* the grant is
            # offered: ReadLease drops grants from non-required
            # grantors, and the first grant after start (or after a
            # view change) must not be lost to a stale, empty set.
            required = self._required_grantors()
            self.lease.set_required(required)
            if isinstance(message, LeaseRevoke):
                self.lease.revoke(message.grantor)
                self._host.count(LEASE_REVOKED, message.grantor)
            elif message.grantor in required:
                newly = self.lease.grant(message.grantor, message.epoch, message.sent_at)
                self._host.count(LEASE_GRANTED if newly else LEASE_RENEWED, message.grantor)
            self._sync_lease()

    def _required_grantors(self) -> set[int]:
        """Grantors the lease needs: every other alive member of the
        installed view(s) — the union across blocks on a sharded host,
        which can only over-require (strictly safe)."""
        required: set[int] = set()
        for proto in self._host.hosted:
            required.update(proto.installed_view.alive())
        required.discard(self.server_id)
        return required

    def _sync_lease(self, expiry: bool = False) -> None:
        """Re-evaluate the lease and push validity *transitions* into
        the protocol(s).  ``expiry`` marks the periodic path, where a
        valid-to-invalid flip means grants aged out."""
        if self.lease is None:
            return
        self.lease.set_required(self._required_grantors())
        epoch = self._epoch()
        pushed = (self.lease.valid(self._host.now(), epoch), epoch)
        last = self._lease_pushed
        if last == pushed:
            return
        if expiry and last is not None and last[0] and not pushed[0]:
            self._host.count(LEASE_EXPIRED, self.server_id)
        self._lease_pushed = pushed
        for proto in self._host.hosted:
            self._host.post(proto.on_lease_update(*pushed))

    # -- post-step poll -------------------------------------------------

    def poll(self) -> None:
        """Act on what the handlers asked of their runtime: a view
        proposal re-evaluation, an old-epoch lease wait-out, a rejoin."""
        if self.heartbeat is None:
            return
        rejoining = False
        for proto in self._host.hosted:  # one pass, nothing allocated
            rejoining = rejoining or proto.rejoining
            if proto.reconcile_due:
                proto.reconcile_due = False
                self._arm_reconcile(self.heartbeat.propose_grace)
            if proto.lease_waitout_due:
                proto.lease_waitout_due = False
                # After waitout() every grant issued under the
                # superseded epoch has expired on its holder's clock
                # (drift bound charged): the new epoch may complete writes.
                self._host.set_timer(
                    self.heartbeat.waitout(), self._waitout_elapsed,
                    proto, proto.installed_epoch,
                )
        if rejoining:
            self._begin_rejoin()

    def _waitout_elapsed(self, proto: ServerProtocol, epoch: int) -> None:
        if not self._stopped:
            self._host.post(proto.lease_waitout_elapsed(epoch))

    def _arm_reconcile(self, delay: float) -> None:
        """One pending re-evaluation per host coalesces bursts of
        detector events.  The usual delay is ``propose_grace``: it
        covers the suspicion skew between the two sides of a partition,
        so a wrongly suspected server has paused (its own detector
        fired) before anyone proposes the view that excludes it."""
        if not self._reconcile_armed:
            self._reconcile_armed = True
            self._host.set_timer(delay, self._reconcile)

    def _reconcile(self) -> None:
        self._reconcile_armed = False
        if self._stopped:
            return
        protos = self._host.hosted
        for proto in protos:
            self._host.post(proto.propose_reconfig())
        self._host.after_step()
        if any(p.paused and not p.rejoining and p.reconfig_blocked for p in protos):
            # Watchdog: an attempt can die silently (its token rejected
            # at a peer whose promise pointed at a coordinator that has
            # since been cleared, or lost with a crashed hop) and a
            # quorum stall only heals when the detector changes its
            # mind.  While this server stays blocked, keep re-evaluating
            # — a fresh attempt carries a higher nonce and replaces our
            # own stale promise at every peer.
            self._arm_reconcile(4 * self.heartbeat.propose_grace)

    # -- rejoin pump ----------------------------------------------------

    def _begin_rejoin(self) -> None:
        """At most one pump per incarnation; it announces for every
        still-rejoining instance (a restarted server, or a live one
        demoted by the epoch guard)."""
        if not self._pumping and any(p.rejoining for p in self._host.hosted):
            self._pumping = True
            self._pump_rejoin(0, REJOIN_RETRY_INITIAL)

    def _pump_rejoin(self, attempt: int, delay: float) -> None:
        """Announce (and re-announce, with backoff, round-robining over
        sponsors) until a reconfiguration commit resumes each rejoiner;
        the pump retires when the last one clears."""
        if self._stopped:
            return
        for proto in self._host.hosted:
            if not proto.rejoining:
                continue
            sponsors = self._host.rejoin_sponsors(proto)
            if sponsors:
                proto.queue_rejoin_announce(sponsors[attempt % len(sponsors)])
        if not any(proto.rejoining for proto in self._host.hosted):
            self._pumping = False
            return
        self._host.post(())  # the announcements leave by the directed pull
        self._host.set_timer(
            delay, self._pump_rejoin, attempt + 1, min(2 * delay, REJOIN_RETRY_MAX)
        )

    def resume_alone(self) -> None:
        """Nobody to rejoin: this server *is* the ring, and its
        recovered pending writes resolve locally.  Only a host that
        knows every other server is down may call this — under the
        heartbeat detector silence could be a partition, and resuming
        alone without quorum evidence would fork the register.  The
        asyncio node calls it on refused dials; the simulator decides
        at restart instead, by crash order."""
        for proto in self._host.hosted:
            if proto.rejoining:
                self._host.post(proto.complete_rejoin_alone())
