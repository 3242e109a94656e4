"""Unit tests for the read-lease state machine and its arithmetic.

Covers the sans-I/O pieces the leased read path stands on:
:class:`repro.fd.heartbeat.ReadLease` (grant/renew/expire boundaries —
strict inequalities, matching :class:`HeartbeatTracker`'s convention —
revocation, view-change pruning), the grantor-side gate
(:meth:`ServerProtocol.may_grant_lease`: no grants to suspects or
announced rejoiners, none while paused/rejoining), the drift-bound
arithmetic (``lease_duration + 2*clock_drift_bound < timeout`` strictly,
and the wait-out that charges it), and the ``clock_skew`` fault plan
validation that attacks it.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.messages import RejoinRequest
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag
from repro.errors import ConfigurationError
from repro.fd.heartbeat import HeartbeatConfig, ReadLease
from repro.sim.faults import FaultPlan

DUR = 1.0


def full_lease(grantors=(1, 2), epoch=0, at=0.0) -> ReadLease:
    lease = ReadLease(DUR)
    lease.set_required(grantors)
    for grantor in grantors:
        lease.grant(grantor, epoch, at)
    return lease


# ----------------------------------------------------------------------
# ReadLease: grant / renew / expire boundaries
# ----------------------------------------------------------------------


def test_lease_requires_every_grantor():
    lease = ReadLease(DUR)
    lease.set_required([1, 2])
    assert not lease.valid(0.0, epoch=0), "no grants yet"
    lease.grant(1, 0, 0.0)
    assert not lease.valid(0.0, epoch=0), "one of two grantors is not a lease"
    lease.grant(2, 0, 0.0)
    assert lease.valid(0.0, epoch=0)


def test_lease_expiry_threshold_is_strict():
    """A grant aged exactly ``duration`` is still fresh; strictly
    beyond, it has expired — the same convention as the tracker's
    suspicion threshold."""
    lease = full_lease(at=0.0)
    assert lease.valid(DUR, epoch=0), "age == duration: still fresh"
    assert not lease.valid(DUR + 1e-9, epoch=0), "strictly past: expired"


def test_lease_freshest_grant_does_not_carry_the_stalest():
    """Validity is the conjunction: the *oldest* required grant bounds
    the lease, no matter how fresh the others are."""
    lease = ReadLease(DUR)
    lease.set_required([1, 2])
    lease.grant(1, 0, 0.0)
    lease.grant(2, 0, 0.9)
    assert lease.valid(1.0, epoch=0)
    assert not lease.valid(1.0 + 1e-9, epoch=0), "grantor 1's grant expired"


def test_lease_epoch_mismatch_invalidates():
    lease = full_lease(epoch=3, at=0.0)
    assert lease.valid(0.5, epoch=3)
    assert not lease.valid(0.5, epoch=4), "grants are epoch-stamped"
    assert not lease.valid(0.5, epoch=2)


def test_lease_mixed_epoch_grants_never_valid():
    lease = ReadLease(DUR)
    lease.set_required([1, 2])
    lease.grant(1, 0, 0.5)
    lease.grant(2, 1, 0.5)
    assert not lease.valid(0.5, epoch=0)
    assert not lease.valid(0.5, epoch=1)


def test_lease_grant_reports_new_coverage_vs_refresh():
    lease = ReadLease(DUR)
    lease.set_required([1])
    assert lease.grant(1, 0, 0.0) is True, "first grant newly covers"
    assert lease.grant(1, 0, 0.5) is False, "refresh of a live grant"
    assert lease.grant(1, 1, 0.6) is True, "epoch change newly covers"
    # Let the grant age strictly past the duration, then renew.
    assert lease.grant(1, 1, 0.6 + DUR + 1e-9) is True, "renewal after expiry"
    assert lease.grant(99, 0, 0.0) is False, "unknown grantor is ignored"


def test_lease_revoke_kills_validity_immediately():
    lease = full_lease()
    assert lease.valid(0.5, epoch=0)
    lease.revoke(1)
    assert not lease.valid(0.5, epoch=0)
    lease.grant(1, 0, 0.6)
    assert lease.valid(0.6, epoch=0), "a fresh grant re-earns the lease"


def test_lease_reset_forgets_everything():
    lease = full_lease()
    lease.reset()
    assert not lease.valid(0.0, epoch=0)


def test_lease_view_change_prunes_leaving_grantors():
    """A grant held from a server leaving the required set must not be
    able to satisfy a future view that re-includes it."""
    lease = full_lease(grantors=(1, 2), at=0.0)
    lease.set_required([1])
    assert lease.valid(0.5, epoch=0), "shrunk view: remaining grant suffices"
    lease.set_required([1, 2])
    assert not lease.valid(0.5, epoch=0), "2's old grant was dropped, not revived"


def test_lease_empty_required_set_is_vacuously_valid():
    lease = ReadLease(DUR)
    lease.set_required([])
    assert lease.valid(123.0, epoch=7), "a single-server ring has no grantors"


def test_lease_expires_at():
    lease = ReadLease(DUR)
    lease.set_required([1, 2])
    assert lease.expires_at(epoch=0) is None, "missing grant: not even potential"
    lease.grant(1, 0, 0.0)
    lease.grant(2, 0, 0.4)
    assert lease.expires_at(epoch=0) == pytest.approx(DUR), "oldest grant bounds"
    assert lease.expires_at(epoch=1) is None, "wrong epoch: not potential"


def test_lease_duration_must_be_positive():
    with pytest.raises(ValueError):
        ReadLease(0.0)


# ----------------------------------------------------------------------
# Drift-bound arithmetic (HeartbeatConfig)
# ----------------------------------------------------------------------


def test_lease_duration_must_exceed_heartbeat_period():
    with pytest.raises(ConfigurationError):
        HeartbeatConfig(period=0.02, lease_duration=0.02).validate()


def test_lease_drift_bound_inequality_is_strict():
    """``lease_duration + 2*drift`` equal to the timeout must be
    rejected: the lease has to *provably* die before the suspicion that
    would exclude its holder can fire."""
    HeartbeatConfig(
        timeout=0.12, lease_duration=0.08, clock_drift_bound=0.01
    ).validate()  # 0.08 + 0.02 < 0.12: fine
    with pytest.raises(ConfigurationError):
        HeartbeatConfig(
            timeout=0.12, lease_duration=0.10, clock_drift_bound=0.01
        ).validate()  # 0.10 + 0.02 == 0.12: equality is not provable death
    with pytest.raises(ConfigurationError):
        HeartbeatConfig(
            timeout=0.12, lease_duration=0.11, clock_drift_bound=0.01
        ).validate()
    with pytest.raises(ConfigurationError):
        HeartbeatConfig(clock_drift_bound=-0.001).validate()


def test_waitout_charges_twice_the_drift_bound():
    config = HeartbeatConfig(
        timeout=0.2, lease_duration=0.1, clock_drift_bound=0.02
    ).validate()
    assert config.waitout() == pytest.approx(0.1 + 2 * 0.02)
    assert config.waitout() < config.timeout


def test_read_leases_config_requires_view_quorum():
    ProtocolConfig(view_quorum=True, read_leases=True).validate()
    with pytest.raises(ConfigurationError):
        ProtocolConfig(read_leases=True).validate()


# ----------------------------------------------------------------------
# Grantor-side gate (ServerProtocol.may_grant_lease)
# ----------------------------------------------------------------------


def make_server(n: int = 3, server_id: int = 0) -> ServerProtocol:
    ring = RingView.initial(n)
    config = ProtocolConfig(view_quorum=True, read_leases=True)
    return ServerProtocol(server_id, ring, config)


def test_may_grant_lease_to_healthy_view_member():
    server = make_server()
    assert server.may_grant_lease(1)
    assert server.may_grant_lease(2)
    assert not server.may_grant_lease(0), "never to itself"


def test_no_grants_without_read_leases_config():
    ring = RingView.initial(3)
    server = ServerProtocol(0, ring, ProtocolConfig(view_quorum=True))
    assert not server.may_grant_lease(1)


def test_suspicion_stops_grants():
    """Suspicion and a live grant must never coexist: suspecting any
    member pauses the grantor, so grants stop toward *everyone* until
    the view question is settled."""
    server = make_server()
    server.on_suspect(1)
    assert not server.may_grant_lease(1), "never grant to a suspect"
    assert not server.may_grant_lease(2), "paused: own view may be moving"


def test_no_grant_to_announced_rejoiner_before_catchup():
    """An announced rejoiner holds stale state until the revived merge
    catches it up; a lease would let it serve that state."""
    server = make_server()
    server.on_ring_message(RejoinRequest(2, 1, 0), 2)
    assert not server.may_grant_lease(2)
    assert server.may_grant_lease(1), "other members are unaffected"


def test_lease_update_transitions():
    server = make_server()
    server.on_lease_update(True, 0)
    assert server.views.lease_valid and server.views.lease_epoch == 0
    server.on_lease_update(False, 0)
    assert not server.views.lease_valid
    assert server.views.lease_epoch == -1, "an invalid lease covers no epoch"


def test_waitout_elapsed_ignores_stale_epochs():
    server = make_server()
    server._lease_waitout = True
    server.views._waitout_commit_tags = [Tag(1, 1)]
    server.lease_waitout_elapsed(server.installed_epoch + 1)
    assert server._lease_waitout, "a stale timer must not lift the gate"
    server.lease_waitout_elapsed(server.installed_epoch)
    assert not server._lease_waitout
    assert list(server.commit_queue) == [Tag(1, 1)], "stashed commits flushed"


# ----------------------------------------------------------------------
# clock_skew fault plan validation
# ----------------------------------------------------------------------


def test_clock_skew_plan_accepts_and_counts():
    plan = FaultPlan()
    plan.clock_skew("s0", offset=0.01, at=0.1)
    plan.clock_skew("s0", offset=-0.01, at=0.5)
    plan.clock_skew("s1", offset=-0.005, at=0.1)
    assert "clock_skew" in plan.fault_kinds()
    assert plan.events >= 3


def test_clock_skew_plan_rejects_bad_offsets():
    plan = FaultPlan()
    with pytest.raises(ConfigurationError):
        plan.clock_skew("s0", offset=float("nan"), at=0.1)
    with pytest.raises(ConfigurationError):
        plan.clock_skew("s0", offset=float("inf"), at=0.1)
    with pytest.raises(ConfigurationError):
        plan.clock_skew("s0", offset=True, at=0.1)


def test_clock_skew_plan_rejects_duplicate_same_time_skew():
    plan = FaultPlan()
    plan.clock_skew("s0", offset=0.01, at=0.1)
    with pytest.raises(ConfigurationError):
        plan.clock_skew("s0", offset=0.02, at=0.1)
