"""The view-policy seam (``repro/core/views.py``) on its own.

Both policies are driven against a minimal fake core — the attributes a
policy may read, the non-covered ones it may write, and the three
primitives through which it may change the membership state — so these
tests pin what a policy itself decides: which token is admitted, when a
proposal is refused, what an install does to leases, who coordinates
after a crash.  No cluster, no runtime, no state merge.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.config import ProtocolConfig
from repro.core.messages import (
    ClientRead,
    OpId,
    ReadFence,
    ReconfigCommit,
    ReconfigToken,
    StaleEpochNotice,
    StateSync,
)
from repro.core.ring import RingView
from repro.core.tags import Tag
from repro.core.views import CrashStopViews, QuorumViews, view_policy
from repro.errors import ProtocolError

N, ME = 5, 2


class FakeCore:
    """What a policy may see of ``ServerProtocol``, and nothing else."""

    def __init__(self, config: ProtocolConfig, epoch: int = 3, me: int = ME):
        self.server_id = me
        self.config = config
        self.ring = self.installed_view = RingView(tuple(range(N)), frozenset(), epoch)
        self.installed_epoch = epoch
        self.paused = self.rejoining = False
        self.reconcile_due = self.lease_waitout_due = self._lease_waitout = False
        self._rejoin_sponsor = 4
        self._reconfig_counter = 0
        self.tag, self.fresh_value = Tag(7, 1), b"committed"
        self.pending = type("Pending", (), {"maxlex": lambda self: Tag(9, 0)})()
        self.values = type(
            "Values", (), {"aborted": 0, "token_form": lambda self, stored: stored}
        )()
        self.values.abort_reads = self._abort_reads
        self.control_queue: deque = deque()
        self.commit_queue: deque = deque()
        self.fence_queue: deque = deque()
        self.outbox: deque = deque()
        self.deferred_reads: deque = deque()
        self._deferred_rejoins: deque = deque()
        self.served: list = []
        self.installs: list = []
        self.resolved_alone = 0
        for stat in (
            "reconfigs", "rejoins_sponsored", "stale_epoch_dropped",
            "quorum_stalls", "epoch_rejected_reconfigs", "confirm_reconfigs",
            "lease_local_reads", "lease_fallbacks", "lease_waitouts",
        ):
            setattr(self, f"stats_{stat}", 0)

    def _abort_reads(self):
        self.values.aborted += 1

    @property
    def successor(self):
        return self.ring.successor(self.server_id)

    @property
    def alone(self):
        return self.ring.num_alive == 1

    # -- the three primitives, and the token constructor over one of them

    def _reroute(self, ring):
        self.ring = ring

    def _install_view(self, ring, commit):
        self.ring = self.installed_view = ring
        self.installed_epoch = ring.epoch
        self.installs.append((ring.epoch, commit.coordinator, commit.nonce))

    def _next_nonce(self):
        self._reconfig_counter += 1
        return self._reconfig_counter

    def _new_token(self, epoch, dead, revived):
        self.paused = True
        return _token(
            self.server_id, self._next_nonce(), epoch, sorted(dead), sorted(revived)
        )

    def _serve_read_locally(self, client, message):
        self.served.append((client, message))

    def _resolve_alone(self):
        self.resolved_alone += 1


def _token(coordinator, nonce, epoch, dead=(), revived=()) -> ReconfigToken:
    return ReconfigToken(
        nonce, epoch, coordinator, tuple(dead), Tag.ZERO, b"", (), (), tuple(revived)
    )


def _commit(coordinator, nonce, epoch, dead=(), revived=()) -> ReconfigCommit:
    return ReconfigCommit(**vars(_token(coordinator, nonce, epoch, dead, revived)))


def _quorum(leases: bool = False, **kw) -> tuple[FakeCore, QuorumViews]:
    core = FakeCore(ProtocolConfig(view_quorum=True, read_leases=leases), **kw)
    views = view_policy(core)
    assert type(views) is QuorumViews and views.epoch_guard is not None
    return core, views


def _crash_stop(**kw) -> tuple[FakeCore, CrashStopViews]:
    core = FakeCore(ProtocolConfig(), **kw)
    views = view_policy(core)
    assert type(views) is CrashStopViews and views.epoch_guard is None
    assert views.serve_read == core._serve_read_locally, "reads stay local, unwrapped"
    return core, views


# ----------------------------------------------------------------------
# QuorumViews: the admission table
# ----------------------------------------------------------------------


def test_own_token_is_admitted_only_as_the_current_attempt():
    core, views = _quorum()
    views._propose_view(frozenset({4}), ())
    first = core.control_queue.pop()
    assert (first.epoch, first.dead, views._attempt_nonce) == (4, (4,), first.nonce)
    assert core.ring.dead == {4} and core.installed_view.dead == set(), "tentative"

    views._propose_view(frozenset({4}), ())  # a retry supersedes the attempt
    assert not views.admit_token(first), "a stale nonce of our own is ignored"
    assert core.stats_epoch_rejected_reconfigs == 0, "...and is nobody's rejection"
    assert views.admit_token(core.control_queue.pop())


def test_a_token_from_a_view_left_behind_earns_one_notice_per_epoch():
    core, views = _quorum()
    for nonce in (1, 2):
        assert not views.admit_token(_token(0, nonce, epoch=3))
    assert core.stats_epoch_rejected_reconfigs == 2
    assert list(core.outbox) == [(0, StaleEpochNotice(3, ME))], "queued once"
    assert not core.rejoining and views._promise is None

    core.installed_epoch = 4  # a newer install may tell the same peer again
    assert not views.admit_token(_token(0, 3, epoch=4))
    assert list(core.outbox)[1:] == [(0, StaleEpochNotice(4, ME))]


def test_a_token_from_beyond_the_next_epoch_demotes_us_to_a_rejoiner():
    core, views = _quorum(leases=True)
    views.on_lease_update(True, 3)
    views._attempt_nonce, views._promise = 9, (3, ME, 9)
    assert not views.admit_token(_token(0, 1, epoch=6))
    assert core.rejoining and core.paused and core._rejoin_sponsor is None
    assert views._attempt_nonce is None and views._promise is None
    assert not views.lease_valid and views.lease_epoch == -1
    assert core.values.aborted == 1 and not core.outbox
    assert core.ring.epoch == 3, "a refused token is never routed by"


def test_a_suspected_coordinators_token_is_refused():
    core, views = _quorum()
    views.on_suspect(0)
    assert not views.admit_token(_token(0, 1, epoch=4))
    assert core.stats_epoch_rejected_reconfigs == 1 and views._promise is None
    views.on_unsuspect(0)
    assert views.admit_token(_token(0, 1, epoch=4))
    assert views._promise == (3, 0, 1)


def test_a_lower_coordinator_outranks_the_promise_and_abandons_our_attempt():
    core, views = _quorum()
    views._propose_view(frozenset({4}), ())
    ours = core.control_queue.pop()
    assert views.blocked and core._reconfig_counter == 1

    assert not views.admit_token(_token(3, 1, epoch=4)), "3 > 2: we hold the promise"
    assert views._attempt_nonce == ours.nonce

    assert views.admit_token(_token(1, 5, epoch=4, dead=(4,)))
    assert views._promise == (3, 1, 5)
    assert views._attempt_nonce is None, "our own attempt is abandoned..."
    assert core._reconfig_counter == 2, "...by burning a persisted nonce"
    assert not views.admit_token(ours), "so our returning token is unrecognisable"
    assert core.stats_epoch_rejected_reconfigs == 1


def test_the_promised_coordinators_older_nonce_is_refused_a_retry_replaces_it():
    core, views = _quorum()
    assert views.admit_token(_token(1, 5, epoch=4))
    assert not views.admit_token(_token(1, 4, epoch=4)), "stale retry"
    assert views._promise == (3, 1, 5)
    assert views.admit_token(_token(1, 6, epoch=4))
    assert views._promise == (3, 1, 6)
    assert views.admit_token(_token(0, 1, epoch=4)), "a lower id still outranks"
    assert core.stats_epoch_rejected_reconfigs == 1


def test_a_token_reviving_us_is_exempt_from_the_base_check_and_the_promise():
    core, views = _quorum()
    views.on_suspect(0)
    assert views.admit_token(_token(0, 1, epoch=9, dead=(4, ME), revived=(ME,)))
    assert views._promise is None, "a rejoiner takes no part in the arbitration"
    assert (core.ring.epoch, core.ring.dead) == (9, {4}), "routed by, minus revived"
    assert not views.admit_token(_token(0, 2, epoch=3, revived=(ME,))), "never back"
    assert core.stats_epoch_rejected_reconfigs == 1


def test_a_commit_installs_only_over_the_view_it_superseded():
    core, views = _quorum()
    assert not views.admit_commit(_commit(ME, 1, epoch=4)), "ours: applied at creation"
    assert not views.admit_commit(_commit(0, 1, epoch=3))
    assert core.stats_epoch_rejected_reconfigs == 1 and not core.rejoining
    assert views.admit_commit(_commit(0, 1, epoch=4))
    assert views.admit_commit(_commit(0, 1, epoch=8, revived=(ME,))), "the fold-in jump"
    assert not views.admit_commit(_commit(0, 1, epoch=8))
    assert core.rejoining, "views installed without us: rejoin"


# ----------------------------------------------------------------------
# QuorumViews: proposals
# ----------------------------------------------------------------------


def test_a_proposal_without_an_ack_quorum_of_the_installed_view_is_refused():
    core, views = _quorum()
    for peer in (0, 1, 3):
        views.on_suspect(peer)
    assert core.paused and core.reconcile_due
    views.propose_reconfig()
    assert not core.reconcile_due, "consumed"
    assert core.stats_quorum_stalls == 1 and not core.control_queue
    assert core.paused and views.blocked and core.installed_epoch == 3

    # The quorum is of the *installed* view: a tentative ring (a token we
    # forwarded routes by it) and an announced stale member do not count.
    core._reroute(core.ring.at_epoch(4, frozenset({0, 1})))
    views.on_unsuspect(1)
    views._announced_rejoiners[4] = 2
    views.propose_reconfig()
    assert core.stats_quorum_stalls == 2, "alive 5, quorum 3, acks {1, 2} = 2"

    views.on_unsuspect(3)
    views.propose_reconfig()
    token = core.control_queue.pop()
    assert (token.epoch, token.dead, token.revived) == (4, (0,), (4,))
    assert core.stats_reconfigs == 1
    assert views._promise == (3, ME, token.nonce)


def test_evaporated_suspicions_run_a_confirm_over_the_same_membership():
    core, views = _quorum()
    views.propose_reconfig()
    assert not core.control_queue, "nothing to reconcile, nothing paused"

    views.on_suspect(1)
    views.on_unsuspect(1)
    assert core.paused and core.reconcile_due, "still paused over the suspicion"
    views.propose_reconfig()
    token = core.control_queue.pop()
    assert (token.epoch, token.dead, token.revived) == (4, (), ())
    assert core.stats_confirm_reconfigs == 1 and core.stats_reconfigs == 0

    # While we are promised to another coordinator's transition out of
    # this view, proposing against it would only be refused.
    views._promise = (3, 0, 7)
    views.propose_reconfig()
    assert not core.control_queue


def test_resuming_with_leftover_suspicions_pauses_again():
    core, views = _quorum()
    views.on_suspect(1)
    core.paused = core.reconcile_due = False
    views.resumed()
    assert core.paused and views.blocked and core.reconcile_due

    core._reroute(core.ring.at_epoch(4, frozenset({1, 3})))
    core.paused = core.reconcile_due = False
    views.resumed()
    assert not core.paused and not views.blocked
    assert core.reconcile_due, "3 is excluded yet unsuspected: re-admit it"


# ----------------------------------------------------------------------
# QuorumViews: installs, leases, fences
# ----------------------------------------------------------------------


def test_an_install_that_excludes_a_member_starts_the_waitout_and_requeues_fences():
    core, views = _quorum(leases=True)
    views.on_lease_update(True, 3)
    read = ClientRead(OpId(70, 0), session=Tag(99, 0))  # beyond local state
    views.serve_read(70, read)
    assert core.stats_lease_fallbacks == 1 and not core.served
    assert list(core.fence_queue) == [ReadFence(1, ME, 3)]
    views.stash_recommits([Tag(5, 0)])
    views._announced_rejoiners[1] = 3
    views._promise = (3, 0, 1)

    assert views.install(_commit(0, 1, epoch=4, dead=(4,)))
    assert core.installs == [(4, 0, 1)] and core.ring.dead == {4}
    assert core._lease_waitout and core.lease_waitout_due
    assert core.stats_lease_waitouts == 1
    assert list(core.deferred_reads) == [(70, read)], "re-fences under the new epoch"
    assert not views._fence_waiters and not views._waitout_commit_tags
    assert not views.lease_valid and views._promise is None
    assert not views._announced_rejoiners and core.values.aborted == 1
    assert list(core.outbox) == [(4, StaleEpochNotice(4, ME))], "the excluded is told"

    views.on_message(ReadFence(1, ME, 3))  # the superseded fence straggles in
    assert not core.served

    # The coordinator's re-commits wait the old leases out; a stale timer
    # (an older epoch's) does not lift the gate.
    views.stash_recommits([Tag(6, 0)])
    views.lease_waitout_elapsed(3)
    assert core._lease_waitout and not core.commit_queue
    views.lease_waitout_elapsed(4)
    assert not core._lease_waitout and list(core.commit_queue) == [Tag(6, 0)]

    # A confirm (or revive) install excludes nobody: no wait.
    assert views.install(_commit(0, 2, epoch=5, dead=(4,)))
    assert not core._lease_waitout and core.stats_lease_waitouts == 1


def test_without_leases_an_exclusion_starts_no_waitout_and_grants_nothing():
    core, views = _quorum()
    assert views.serve_read == core._serve_read_locally
    assert views.install(_commit(0, 1, epoch=4, dead=(4,)))
    assert not core._lease_waitout and not core.lease_waitout_due
    assert not views.may_grant_lease(1)


def test_a_valid_lease_for_the_installed_epoch_serves_locally():
    core, views = _quorum(leases=True)
    read = ClientRead(OpId(70, 0), session=Tag(9, 0))  # pending covers it
    views.on_lease_update(True, 2)
    views.serve_read(70, read)
    assert not core.served, "a lease for another epoch serves nothing"
    views.on_lease_update(True, 3)
    views.serve_read(70, read)
    assert core.served == [(70, read)]
    assert (core.stats_lease_local_reads, core.stats_lease_fallbacks) == (1, 1)

    # Our fence closing its circle serves without the lease; others' are
    # forwarded.
    views.on_message(ReadFence(1, ME, 3))
    assert core.served == [(70, read)] * 2
    views.on_message(ReadFence(4, 0, 3))
    assert list(core.fence_queue) == [ReadFence(1, ME, 3), ReadFence(4, 0, 3)]


def test_the_epoch_guard_rejects_data_across_epochs_and_tells_the_stale_sender():
    core, views = _quorum()
    assert not views.epoch_guard(StateSync(Tag(1, 0), b"", (), 3), 1)
    assert not views.epoch_guard(_token(0, 1, epoch=9), 1), "tokens carry their own"
    assert views.epoch_guard(StateSync(Tag(1, 0), b"", (), 2), 1)
    assert views.epoch_guard(StateSync(Tag(1, 0), b"", (), 2), None)
    assert views.epoch_guard(StateSync(Tag(1, 0), b"", (), 4), 1), "we are stale"
    assert core.stats_stale_epoch_dropped == 3
    assert list(core.outbox) == [(1, StaleEpochNotice(3, ME))]

    views.on_message(StaleEpochNotice(3, 0))
    assert not core.rejoining, "not news"
    views.on_message(StaleEpochNotice(4, 0))
    assert core.rejoining
    with pytest.raises(ProtocolError):
        views.on_message(object())


# ----------------------------------------------------------------------
# CrashStopViews: pseudocode lines 85-93
# ----------------------------------------------------------------------


def test_the_crashed_servers_predecessor_pushes_its_state_and_coordinates():
    core, views = _crash_stop(epoch=0)
    views.on_server_crash(3)  # our successor
    sync, token = core.control_queue
    assert sync == StateSync(Tag(7, 1), b"committed")
    assert (token.coordinator, token.epoch, token.dead) == (ME, 1, (3,))
    assert core.paused and core.stats_reconfigs == 1
    assert core.ring.dead == {3} and core.installed_epoch == 0

    views.on_server_crash(3)  # a repeated notification is a no-op
    assert len(core.control_queue) == 2 and core.stats_reconfigs == 1
    with pytest.raises(ProtocolError):
        views.on_server_crash(ME)


def test_every_other_survivor_pauses_and_awaits_the_token():
    core, views = _crash_stop(epoch=0)
    views.on_server_crash(0)
    assert core.paused and not core.control_queue and core.ring.dead == {0}

    # The token's dead set is unioned with what we know; a commit that
    # predates a crash we witnessed does not resume us.
    views.on_server_crash(4)
    token = _token(4, 1, epoch=1, dead=(0,))
    assert views.admit_token(token)
    assert views.merged_membership(token) == (2, {0, 4})
    assert views.admit_commit(_commit(3, 1, epoch=1, dead=(0,)))
    assert not views.install(_commit(3, 1, epoch=1, dead=(0,)))
    assert views.install(_commit(3, 2, epoch=2, dead=(0, 4)))
    assert not views.admit_commit(_commit(ME, 3, epoch=3, dead=(0, 4))), "full circle"


def test_a_rejoining_merger_contributes_state_but_no_exclusions():
    core, views = _crash_stop(epoch=0)
    core._reroute(core.ring.at_epoch(2, frozenset({0, 1})))  # its stale snapshot's
    core.rejoining = core.paused = True
    views.on_server_crash(3)
    assert core.ring.dead == {0, 1, 3} and core.stats_reconfigs == 0
    assert not core.control_queue, "an outsider never coordinates"

    token = _token(4, 1, epoch=5, dead=(3, ME), revived=(ME,))
    assert views.admit_token(token)
    assert (core.ring.epoch, core.ring.dead) == (5, {3}), "adopted wholesale"
    assert views.merged_membership(token) == (5, {3})


def test_the_sole_survivor_resolves_alone():
    core, views = _crash_stop(epoch=0)
    core._reroute(core.ring.at_epoch(3, frozenset({0, 1, 4})))
    views.on_server_crash(3)
    assert core.resolved_alone == 1 and not core.control_queue and not core.paused


def test_a_sponsor_splices_the_rejoiner_in_at_once_or_defers_while_paused():
    from repro.core.messages import RejoinRequest

    core, views = _crash_stop(epoch=0)
    core._reroute(core.ring.without(4))
    views.on_rejoin_request(RejoinRequest(3))
    assert not core.control_queue, "alive in our view: a retried duplicate"

    core.paused = True
    views.on_rejoin_request(RejoinRequest(4))
    assert list(core._deferred_rejoins) == [RejoinRequest(4)]

    core.paused = False
    views.on_rejoin_request(RejoinRequest(4))
    (token,) = core.control_queue
    assert (token.dead, token.revived, token.epoch) == ((), (4,), 2)
    assert core.ring.dead == set() and core.paused
    assert (core.stats_reconfigs, core.stats_rejoins_sponsored) == (1, 1)
    with pytest.raises(ProtocolError):
        views.on_message(ReadFence(1, 0, 0))
