"""The control-plane timeline both runtimes share, pinned on a fake host.

:class:`~repro.runtime.driver.ServerDriver` is sans-I/O: these tests
drive it with a scripted :class:`FakeHost` — a manual clock, a timer
heap and recorded sends, posts and counts — and scripted protocol
stand-ins, so every assertion is about *when* the driver does *what*,
with no simulator and no event loop in the room.  All timings are
binary fractions, so clock arithmetic is exact.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.core.messages import Heartbeat, LeaseGrant, LeaseRevoke
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime import driver as drv
from repro.runtime.driver import ServerDriver

HB = HeartbeatConfig(
    period=0.25,
    timeout=1.0,
    check_interval=0.5,
    propose_grace=1.0,
    lease_duration=0.5,
    clock_drift_bound=0.125,
).validate()


class FakeView:
    def __init__(self, members):
        self.members = tuple(members)

    def alive(self):
        return self.members


class FakeProto:
    """Records every handler call; flags are plain attributes."""

    def __init__(self, name="p", members=(0, 1, 2)):
        self.name = name
        self.calls: list[tuple] = []
        self.reconcile_due = False
        self.lease_waitout_due = False
        self.rejoining = False
        self.paused = False
        self.reconfig_blocked = False
        self.installed_epoch = 0
        self.installed_view = FakeView(members)
        self.grantable = True
        self.announced: list[int] = []

    def _call(self, *call):
        self.calls.append(call)
        return [(self.name, *call)]

    def may_grant_lease(self, peer):
        return self.grantable

    def on_suspect(self, peer):
        return self._call("on_suspect", peer)

    def on_unsuspect(self, peer):
        return self._call("on_unsuspect", peer)

    def on_lease_update(self, valid, epoch):
        return self._call("on_lease_update", valid, epoch)

    def lease_waitout_elapsed(self, epoch):
        return self._call("lease_waitout_elapsed", epoch)

    def propose_reconfig(self):
        return self._call("propose_reconfig")

    def queue_rejoin_announce(self, sponsor):
        self.announced.append(sponsor)

    def complete_rejoin_alone(self):
        self.rejoining = False
        return self._call("complete_rejoin_alone")


class FakeHost:
    """The :class:`~repro.runtime.driver.DriverHost` capabilities, scripted."""

    def __init__(self, protos, sponsors=(1, 2)):
        self.protos = list(protos)
        self.clock = 0.0
        self.timers: list = []
        self._seq = 0
        self.sent: list[tuple] = []  # (time, peer, message)
        self.posted: list = []  # flattened replies
        self.posts = 0
        self.steps = 0
        self.counts: Counter = Counter()
        self.sponsors = sponsors
        self.driver: ServerDriver | None = None

    def make_driver(self, heartbeat=HB, read_leases=False, trusting=True):
        self.driver = ServerDriver(self, 0, [1, 2], heartbeat, read_leases, trusting)
        return self.driver

    # -- capabilities ---------------------------------------------------

    @property
    def hosted(self):
        return tuple(self.protos)

    def now(self):
        return self.clock

    def set_timer(self, delay, callback, *args):
        heapq.heappush(self.timers, (self.clock + delay, self._seq, callback, args))
        self._seq += 1

    def send_raw(self, peer, message):
        self.sent.append((self.clock, peer, message))

    def post(self, replies):
        self.posts += 1
        self.posted.extend(replies)

    def after_step(self):
        self.steps += 1
        self.driver.poll()

    def count(self, event, peer):
        self.counts[event] += 1

    def rejoin_sponsors(self, proto):
        return self.sponsors

    # -- scripting -------------------------------------------------------

    def advance(self, until):
        """Fire every timer due up to and including ``until``, in order."""
        while self.timers and self.timers[0][0] <= until:
            self.clock, _seq, callback, args = heapq.heappop(self.timers)
            callback(*args)
        self.clock = until

    def sent_of(self, kind):
        return [(t, peer) for t, peer, m in self.sent if isinstance(m, kind)]


def test_beacons_go_to_every_peer_every_period():
    host = FakeHost([FakeProto()])
    host.make_driver().start()
    host.advance(0.5)
    assert host.sent_of(Heartbeat) == [
        (0.0, 1), (0.0, 2), (0.25, 1), (0.25, 2), (0.5, 1), (0.5, 2),
    ]
    assert not host.sent_of(LeaseGrant), "no grants without read_leases"


def test_grants_ride_each_beacon_only_while_every_instance_agrees():
    a, b = FakeProto("a"), FakeProto("b")
    b.installed_epoch = 3
    host = FakeHost([a, b])
    host.make_driver(read_leases=True).start()
    grants = [m for _t, _peer, m in host.sent if isinstance(m, LeaseGrant)]
    # Stamped with the oldest installed epoch and the send-time clock.
    assert [(g.grantor, g.epoch, g.sent_at) for g in grants] == [(0, 0, 0.0)] * 2
    b.grantable = False  # one block mid-proposal gates the whole server
    host.advance(0.25)
    assert len(host.sent_of(LeaseGrant)) == 2


def test_suspicion_is_strict_silence_of_exactly_timeout_is_trusted():
    proto = FakeProto()
    host = FakeHost([proto])
    host.make_driver().start()
    host.advance(1.0)  # checks at 0.5 and 1.0; silence == timeout at 1.0
    assert host.counts[drv.SUSPECTED] == 0 and not proto.calls
    host.advance(1.5)
    assert host.counts[drv.SUSPECTED] == 2
    assert proto.calls == [("on_suspect", 1), ("on_suspect", 2)]
    assert host.steps == 2, "the host's post-step hook runs per verdict"
    assert ("p", "on_suspect", 1) in host.posted


def test_heartbeat_resets_the_silence_clock_and_withdraws_suspicion():
    proto = FakeProto()
    host = FakeHost([proto])
    d = host.make_driver()
    d.start()
    host.advance(0.75)
    d.on_raw(Heartbeat(1))  # peer 1 heard at 0.75; peer 2 stays silent
    host.advance(1.5)
    assert proto.calls == [("on_suspect", 2)]
    host.advance(1.6)
    d.on_raw(Heartbeat(2))
    assert proto.calls[-1] == ("on_unsuspect", 2)
    assert host.counts[drv.UNSUSPECTED] == 1


def test_restart_is_suspect_first_until_a_heartbeat_arrives():
    proto = FakeProto()
    host = FakeHost([proto])
    host.clock = 10.0
    d = host.make_driver(trusting=False)
    d.start()
    d.on_raw(Heartbeat(2))  # vouched for before the first check
    host.advance(10.5)
    assert proto.calls == [("on_suspect", 1)]


def test_suspicion_sends_a_best_effort_revoke_when_granting():
    host = FakeHost([FakeProto()])
    host.make_driver(read_leases=True).start()
    host.advance(1.5)
    assert host.sent_of(LeaseRevoke) == [(1.5, 1), (1.5, 2)]


def test_reconcile_fires_after_grace_coalesced_per_host():
    a, b = FakeProto("a"), FakeProto("b")
    host = FakeHost([a, b])
    d = host.make_driver()
    a.reconcile_due = b.reconcile_due = True
    d.poll()
    assert not a.reconcile_due and not b.reconcile_due, "flags are consumed"
    host.clock = 0.5
    a.reconcile_due = True
    d.poll()  # already armed: coalesced into the pending timer
    host.advance(0.99)
    assert not a.calls
    host.advance(1.0)
    assert a.calls == [("propose_reconfig",)] and b.calls == [("propose_reconfig",)]
    host.advance(10.0)
    assert len(a.calls) == 1, "unblocked: no watchdog"


def test_watchdog_rearms_at_four_grace_while_blocked():
    proto = FakeProto()
    host = FakeHost([proto])
    d = host.make_driver()
    proto.reconcile_due = True
    proto.paused = proto.reconfig_blocked = True
    d.poll()
    host.advance(1.0)
    assert len(proto.calls) == 1
    host.advance(4.99)
    assert len(proto.calls) == 1
    host.advance(5.0)  # 1.0 + 4 * propose_grace
    assert len(proto.calls) == 2
    proto.rejoining = True  # a rejoiner is not the watchdog's business
    host.advance(9.0)
    assert len(proto.calls) == 3
    host.advance(30.0)
    assert len(proto.calls) == 3


def test_lease_waitout_fires_after_the_provable_bound_with_its_epoch():
    proto = FakeProto()
    host = FakeHost([proto])
    d = host.make_driver()
    proto.lease_waitout_due = True
    proto.installed_epoch = 7
    d.poll()
    assert not proto.lease_waitout_due
    proto.installed_epoch = 8  # a later install arms its own wait-out
    host.advance(HB.waitout() - 0.01)
    assert not proto.calls
    host.advance(HB.waitout())
    assert proto.calls == [("lease_waitout_elapsed", 7)]
    assert HB.waitout() == 0.75


def test_first_grant_counts_because_required_grantors_are_set_first():
    proto = FakeProto()
    host = FakeHost([proto])
    d = host.make_driver(read_leases=True)
    d.on_raw(LeaseGrant(1, 0, 0.0))
    assert host.counts[drv.LEASE_GRANTED] == 1, "not discarded as un-required"
    assert ("on_lease_update", True, 0) not in proto.calls  # grantor 2 missing
    d.on_raw(LeaseGrant(2, 0, 0.0))
    assert proto.calls[-1] == ("on_lease_update", True, 0)
    d.on_raw(LeaseGrant(2, 0, 0.0))
    assert host.counts[drv.LEASE_RENEWED] == 1
    assert proto.calls.count(("on_lease_update", True, 0)) == 1, "transitions only"
    d.on_raw(LeaseGrant(5, 0, 0.0))  # not a view member: ignored
    assert host.counts[drv.LEASE_GRANTED] == 2


def test_lease_expires_by_clock_on_the_periodic_check_and_on_revoke():
    proto = FakeProto()
    host = FakeHost([proto])
    d = host.make_driver(read_leases=True)
    d.start()
    d.on_raw(LeaseGrant(1, 0, 0.0))
    d.on_raw(LeaseGrant(2, 0, 0.0))
    host.advance(0.5)  # aged exactly lease_duration: still fresh
    assert proto.calls[-1] == ("on_lease_update", True, 0)
    host.advance(1.0)
    assert proto.calls[-1] == ("on_lease_update", False, 0)
    assert host.counts[drv.LEASE_EXPIRED] == 1
    d.on_raw(LeaseGrant(1, 0, 1.0))
    d.on_raw(LeaseGrant(2, 0, 1.0))
    d.on_raw(LeaseRevoke(2, 0))
    assert proto.calls[-1] == ("on_lease_update", False, 0)
    assert host.counts[drv.LEASE_REVOKED] == 1
    assert host.counts[drv.LEASE_EXPIRED] == 1, "a revoke is not an expiry"


def test_rejoin_backoff_round_robin_and_pump_retirement():
    a, b = FakeProto("a"), FakeProto("b")
    a.rejoining = b.rejoining = True
    host = FakeHost([a, b])
    host.make_driver(heartbeat=None).start()
    assert not host.sent, "perfect detector: no beacons"
    times = []
    for until in (0.0, 0.25, 0.75, 1.75, 2.75):
        host.advance(until)
        times.append((until, list(a.announced)))
    assert times == [
        (0.0, [1]),
        (0.25, [1, 2]),
        (0.75, [1, 2, 1]),
        (1.75, [1, 2, 1, 2]),
        (2.75, [1, 2, 1, 2, 1]),
    ], "0.25 / 0.5 / 1.0 / 1.0 between announcements"
    b.rejoining = False  # one block folded back in; the other keeps pumping
    host.advance(3.75)
    assert len(a.announced) == 6 and len(b.announced) == 5
    a.rejoining = False
    host.advance(4.75)
    assert not host.timers, "pump retired with the last rejoiner"


def test_one_pump_per_incarnation_and_poll_starts_it_under_heartbeat():
    proto = FakeProto()
    host = FakeHost([proto])
    d = host.make_driver()
    d.poll()
    assert not proto.announced
    proto.rejoining = True
    d.poll()
    d.poll()
    assert proto.announced == [1], "a second poll must not start a second pump"
    proto.rejoining = False
    host.advance(0.25)
    assert not host.timers, "retired"
    proto.rejoining = True  # demoted again later: a fresh pump, fresh backoff
    d.poll()
    host.advance(0.5)
    assert proto.announced == [1, 1, 2]
    perfect = FakeHost([proto])
    perfect.make_driver(heartbeat=None).poll()
    assert not perfect.timers, "poll is inert under the perfect detector"


def test_an_empty_sponsor_list_keeps_rejoining_and_rearms_the_pump():
    """No sponsor is never a licence to serve: the pump waits with its
    backoff and announces once a sponsor is up again."""
    proto = FakeProto()
    proto.rejoining = True
    host = FakeHost([proto], sponsors=[])
    host.make_driver(heartbeat=None).start()
    host.advance(1.75)  # attempts at 0, 0.25, 0.75 and 1.75
    assert proto.rejoining and not proto.calls and not proto.announced
    assert len(host.timers) == 1, "the pump re-arms while nobody sponsors"
    host.sponsors = [2]
    host.advance(2.75)
    assert proto.announced == [2] and proto.rejoining


def test_no_reachable_sponsor_keeps_the_pump_alive():
    proto = FakeProto()
    proto.rejoining = True
    host = FakeHost([proto], sponsors=())
    host.make_driver(heartbeat=None).start()
    assert not proto.announced and len(host.timers) == 1


def test_timers_of_a_stopped_incarnation_are_inert():
    old = FakeProto("old")
    old.rejoining = old.reconcile_due = old.lease_waitout_due = True
    host = FakeHost([old])
    previous = host.make_driver(read_leases=True)
    previous.start()
    previous.poll()
    assert len(host.timers) >= 5  # beacon, check, reconcile, wait-out, pump
    previous.stop()  # the crash
    posts, calls = host.posts, list(old.calls)
    announced = list(old.announced)
    # The restart: a new incarnation on the same host object.
    fresh = FakeProto("fresh")
    host.protos = [fresh]
    host.clock = 0.125
    host.make_driver(read_leases=True, trusting=False).start()
    previous.on_raw(Heartbeat(1))
    host.advance(20.0)
    assert old.calls == calls and old.announced == announced
    # Every beacon after the crash came from the new driver's cadence
    # (phase 0.125), none from the old one's (phase 0).
    late = [t for t, _p in host.sent_of(Heartbeat) if t > 0.125]
    assert late and all((t - 0.125) % 0.25 == 0 for t in late)
    assert host.posts > posts  # the new incarnation is live
