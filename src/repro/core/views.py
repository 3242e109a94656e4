"""The view policies: who may change the ring's membership, and how.

:class:`~repro.core.server.ServerProtocol` orders tags, commits them and
merges state around the ring; *when* a membership change starts, which
proposal wins and what installing it means are questions put to the
policy chosen once, at construction, from ``config.view_quorum``
(:func:`view_policy`):

* :class:`CrashStopViews` — the paper's lines 85–93 under the perfect
  failure detector: a crash notification is a certificate, so every
  server splices the view at once, the crashed server's predecessor
  pushes a :class:`StateSync` and coordinates the state merge, and
  receivers union the dead sets they know of;
* :class:`QuorumViews` — everything the imperfect (heartbeat) detector
  added (docs/reconfiguration.md): suspicion only pauses, a proposal
  needs an ack quorum of the *installed* view, tokens are admitted
  through the epoch + promise arbitration, commits install views
  wholesale with a strictly larger epoch, data traffic is epoch-guarded,
  stale servers are demoted to rejoiners — and, because a lease's only
  lifecycle events are a view install and a demotion, the leased read
  path with its fences and the old-epoch wait-out (docs/leases.md).

What the core asks, in its own vocabulary (there is no base class and no
third policy).  Both classes answer the first block; the rest are the
entry points of one detector, present only on the policy that detector
drives — the perfect detector never suspects, the heartbeat detector
never certifies a crash:

==============================  =========================================
``epoch_guard``                 bound ``(message, sender) -> rejected?``
                                run ahead of every ring message, or
                                ``None`` (no per-message policy call)
``serve_read``                  the read handler, bound once
``admit_token(token)``          may this token be merged here?  Adopts
                                the proposed ring for routing if so
``merged_membership(token)``    ``(epoch, dead)`` one merge hop forwards
``admit_commit(commit)``        may this commit be applied here?
``install(commit)``             the commit is being applied → whether
                                the server may resume on it
``resumed()``                   the core just un-paused
``on_rejoin_request(message)``  a rejoiner announced itself to us
``on_message(message)``         ring messages only a policy interprets
------------------------------  -----------------------------------------
``on_server_crash(crashed)``    :class:`CrashStopViews` only
``on_suspect`` / ``on_unsuspect`` / ``propose_reconfig`` / ``blocked`` /
``on_lease_update`` / ``may_grant_lease`` / ``lease_waitout_elapsed`` /
``stash_recommits``             :class:`QuorumViews` only
==============================  =========================================

The snapshot-covered membership state (``ring``, ``installed_epoch``,
``installed_view``, ``_reconfig_counter``) stays on the protocol object.
A policy changes it only through three core primitives — ``_reroute``
(tentative routing view), ``_install_view`` (the epoch transition point)
and ``_next_nonce`` (via ``_new_token`` when it starts a merge) — and
``test_protocol_holders_store_no_covered_state`` in
``tests/unit/test_runtime_wiring_meta.py`` rejects a direct store from
this module.  The state merge itself (token building, merging, applying,
resuming) and crash recovery are not policy and stay in the core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.core.messages import (
    ClientRead,
    Commit,
    PreWrite,
    ReadFence,
    ReconfigCommit,
    ReconfigToken,
    RejoinRequest,
    RingMessage,
    StaleEpochNotice,
    StateSync,
)
from repro.core.tags import Tag
from repro.core.values import FRAGMENT_MESSAGES
from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import ServerProtocol

#: Data traffic, valid only within the sender's and receiver's common
#: installed view (:meth:`QuorumViews.epoch_guard`).
_EPOCH_GUARDED = (PreWrite, Commit, StateSync, ReadFence) + FRAGMENT_MESSAGES


def _proposed_dead(message: Union[ReconfigToken, ReconfigCommit]) -> frozenset:
    """Who a token or commit leaves out: a server it revives must not
    ride along in the dead set via some merger's stale view."""
    return frozenset(message.dead) - frozenset(message.revived)


def view_policy(core: "ServerProtocol") -> Union["CrashStopViews", "QuorumViews"]:
    """The policy ``core.config`` selects (called once, at construction)."""
    return (QuorumViews if core.config.view_quorum else CrashStopViews)(core)


class CrashStopViews:
    """Pseudocode lines 85–93: a crash notification splices the view.

    The detector (the crashed server's alive predecessor) pushes its
    state to the new successor (line 88), then circulates a state-merge
    token around the new ring followed by a commit of the merged state,
    which subsumes the pseudocode's retransmission (lines 89–91).
    """

    #: Crash-stop views never disagree, so ring traffic needs no guard.
    epoch_guard = None

    def __init__(self, core: "ServerProtocol"):
        self.core = core
        self.serve_read = core._serve_read_locally

    def on_server_crash(self, crashed: int) -> None:
        core = self.core
        ring = core.ring
        if crashed == core.server_id:
            raise ProtocolError("a server cannot be notified of its own crash")
        if crashed in ring.dead or crashed not in set(ring.members):
            return
        was_successor = core.successor == crashed
        core._reroute(ring.without(crashed))
        if core.rejoining:
            # Not part of anyone's ring yet: note the crash, stay paused.
            # Coordinating a reconfiguration from outside the ring would
            # circulate a token nobody routes back (every survivor still
            # considers this server dead); the announcement retry brings
            # us in through a live sponsor instead.
            return
        core.stats_reconfigs += 1
        if core.alone:
            core._resolve_alone()
        elif was_successor:
            # We are the detector: splice the ring (line 87), push our
            # committed state to the new successor (line 88), then run
            # the state-merge reconfiguration, which subsumes the
            # pending-pre-write retransmission of lines 89-91.
            value = core.values.token_form(core.fresh_value)
            core.control_queue.append(StateSync(core.tag, value))
            self._start_reconfig()
        else:
            # Await the coordinator's token; suspend normal ring traffic.
            core.paused = True

    def _start_reconfig(self, revived: tuple[int, ...] = ()) -> None:
        """Coordinator side: circulate the state-merge token.

        ``revived`` names servers this reconfiguration folds back into
        the ring (crash recovery); the coordinator has already spliced
        them into its own view, and every receiver does the same before
        merging, so the token traverses the grown ring.
        """
        core = self.core
        epoch = max(core.ring.epoch, core.installed_epoch + 1)
        core.control_queue.append(core._new_token(epoch, core.ring.dead, revived))

    def _adopt(self, message: Union[ReconfigToken, ReconfigCommit]) -> None:
        """Route by what a token or commit says about membership."""
        core = self.core
        ring = core.ring
        if core.rejoining:
            # Wholesale adoption for a rejoiner: its own dead set is its
            # snapshot's and must not survive into routing — keeping a
            # long-since-revived member dead would make this server
            # forward the token (and every later frame) past it.
            epoch = max(ring.epoch + 1, message.epoch)
            core._reroute(ring.at_epoch(epoch, _proposed_dead(message)))
        else:
            core._reroute(ring.with_dead(message.dead).revive_all(message.revived))

    def admit_token(self, token: ReconfigToken) -> bool:
        self._adopt(token)
        return True

    def merged_membership(self, token: ReconfigToken) -> tuple[int, frozenset]:
        """Union the dead sets: every crash any merger witnessed.

        A *rejoining* merger contributes state but no exclusions: its
        dead set is its snapshot's — stale by definition — and any crash
        it has witnessed since restarting was witnessed by every live
        merger too.  Unioning it in re-excluded members that were folded
        back while the rejoiner was down, which diverted the token's
        circle around them and deadlocked the ring (two overlapping
        crash-recovery cycles were enough to hit this).
        """
        core = self.core
        dead = _proposed_dead(token)
        if not core.rejoining:
            dead |= core.ring.dead - frozenset(token.revived)
        return max(token.epoch, len(dead)), dead

    def admit_commit(self, commit: ReconfigCommit) -> bool:
        self._adopt(commit)
        return commit.coordinator != self.core.server_id  # else: full circle

    def install(self, commit: ReconfigCommit) -> bool:
        """Resume unless we know of a crash this commit predates; then
        stay paused until the follow-up reconfiguration's commit."""
        return frozenset(commit.dead) >= self.core.ring.dead

    def resumed(self) -> None:
        pass

    def on_rejoin_request(self, message: RejoinRequest) -> None:
        """Sponsor side of the rejoin handshake.

        A restarted server announced itself.  If our view still has it
        dead, splice it back in and coordinate a reconfiguration whose
        token (marked ``revived``) circulates the grown ring — through
        the rejoiner, which merges its recovered state in and resumes on
        the commit.  If our view already has it alive, a commit is (or
        was) on its way and the request is a retried duplicate: drop it.
        """
        core = self.core
        rid = message.server_id
        if rid not in core.ring.dead:
            return
        if core.paused:
            # Mid-reconfiguration: the ring is in flux.  Defer; the
            # rejoiner also retries, so nothing is lost if we crash.
            core._deferred_rejoins.append(message)
            return
        core._reroute(core.ring.revived(rid))
        core.stats_reconfigs += 1
        core.stats_rejoins_sponsored += 1
        self._start_reconfig(revived=(rid,))

    def on_message(self, message: RingMessage) -> None:
        raise ProtocolError(f"unexpected ring message: {message!r}")


class QuorumViews:
    """Epoch-guarded, quorum-installed views, and the leases they scope.

    Suspicion (:meth:`on_suspect`) may be *wrong*, so it never splices
    the view — it pauses the server and, after a grace delay, the
    runtime asks for a proposal (:meth:`propose_reconfig`).  A proposal
    launches only when the surviving members of the installed view form
    a majority of it; its token is admitted only over exactly that view
    (``epoch == installed + 1``), at most one proposal per view wins the
    per-view promise (lowest coordinator id; a forwarded competitor
    abandons one's own attempt), and the commit installs the new view
    wholesale with a strictly larger epoch.  Data traffic across epochs
    is rejected, wrongly excluded servers are fenced with
    :class:`StaleEpochNotice` and fold back in as rejoiners via the
    revived merge.

    Leases (``config.read_leases``): the runtime owns every clock —
    grant receipt, expiry, the old-epoch wait-out — and pushes the
    results in (:meth:`on_lease_update`, :meth:`lease_waitout_elapsed`),
    so the policy stays clockless.  None of this object's state is
    snapshotted: a restarted server re-earns its lease from scratch,
    which is what makes excluding leases from durable state a safety
    feature rather than an omission.
    """

    def __init__(self, core: "ServerProtocol"):
        self.core = core
        self._leases = core.config.read_leases
        self.serve_read = (
            self._leased_read if self._leases else core._serve_read_locally
        )
        #: Mirrors the runtime's heartbeat tracker; suspicion pauses the
        #: server but never mutates the view directly — only a
        #: quorum-installed commit does.
        self.suspected: set[int] = set()
        self._suspicion_paused = False
        #: One forwarded token per installed view: (base epoch,
        #: coordinator, nonce).  Competing proposals for the same base
        #: are refused unless they outrank the promise (lower
        #: coordinator id, or a fresh retry by the same coordinator), so
        #: two interleaved tokens can never both complete their circle
        #: and install divergent views at the same epoch.  Suspecting the
        #: promised coordinator does not release it; its rejoin
        #: announcement from the promised base does.
        self._promise: Optional[tuple[int, int, int]] = None
        #: Nonce of this server's own in-flight proposal, if any.
        self._attempt_nonce: Optional[int] = None
        #: Rejoiners that announced themselves (rid -> claimed epoch).
        #: A rejoiner that is alive in the installed view but stale —
        #: restarted before its exclusion installed, or demoted by the
        #: epoch guard — must ride the next proposal as ``revived`` so
        #: the base check lets it merge and catch up; cleared at every
        #: install (still-stale members re-announce).
        self._announced_rejoiners: dict[int, int] = {}
        self._stale_notified: dict[int, int] = {}  # peer -> epoch notified at
        self.lease_valid = False
        self.lease_epoch = -1
        self._fence_nonce = 0
        #: Fence nonce -> reads served when that fence completes its circle.
        self._fence_waiters: dict[int, list[tuple[int, ClientRead]]] = {}
        #: Coordinator's post-merge re-commit tags, stashed while the
        #: wait-out runs (re-committing them sooner could complete a
        #: write an old-epoch leaseholder has never seen).
        self._waitout_commit_tags: list[Tag] = []

    # -- the detector's verdicts -----------------------------------------

    def on_suspect(self, peer: int) -> None:
        core = self.core
        ignored = self.suspected | {core.server_id}
        if peer in ignored or peer not in set(core.ring.members):
            return
        self.suspected.add(peer)
        # A promise to ``peer`` survives the suspicion: we forwarded its
        # token, so its circle may complete and install the next epoch
        # whatever we believe now.  Only the coordinator's own rejoin
        # announcement proves the attempt dead (:meth:`on_rejoin_request`).
        if core.installed_view.is_alive(peer) and not core.rejoining:
            core.paused = True
            self._suspicion_paused = True
            core.reconcile_due = True

    def on_unsuspect(self, peer: int) -> None:
        core = self.core
        if peer not in self.suspected:
            return
        self.suspected.discard(peer)
        excluded = peer in core.installed_view.dead
        if not core.rejoining and (self._suspicion_paused or excluded):
            core.reconcile_due = True

    @property
    def blocked(self) -> bool:
        return self._suspicion_paused or self._attempt_nonce is not None

    def propose_reconfig(self) -> None:
        core = self.core
        core.reconcile_due = False
        if core.rejoining or len(core.ring.members) == 1:
            return  # (a ring of one has no peers to suspect)
        if (
            self._promise is not None
            and self._promise[0] == core.installed_epoch
            and self._promise[1] != core.server_id
        ):
            # Another coordinator's transition out of this view is in
            # flight and we forwarded its token; proposing against it
            # would only be refused.  Its commit (or its coordinator's
            # rejoin announcement, which releases the promise)
            # re-triggers us.
            return
        view = core.installed_view
        suspected = self.suspected & set(view.members)
        to_exclude = {s for s in suspected if view.is_alive(s)}
        to_readmit = view.dead - suspected
        # Announced rejoiners that are alive in the installed view but
        # claim an *older* epoch are stale, not absent: they restarted
        # before their exclusion installed, or the epoch guard demoted
        # them, or a commit died mid-circle and left them behind.  They
        # must traverse the next token as ``revived`` (exempt from the
        # base-epoch check) to be caught up by the merge — a proposal
        # that routes through them without the marking dies at their
        # staleness forever.  Announcers already *at* our epoch pass the
        # base check unaided and keep their full arbitration role; they
        # merely need some commit to resume, which the confirm branch
        # below guarantees exists.
        announced = {
            rid: epoch
            for rid, epoch in self._announced_rejoiners.items()
            if rid != core.server_id and rid not in suspected and view.is_alive(rid)
        }
        stale_members = {
            rid for rid, epoch in announced.items() if epoch < core.installed_epoch
        }
        current_rejoiners = len(announced) > len(stale_members)
        if not to_exclude and not to_readmit and not stale_members:
            if self.blocked or current_rejoiners:
                # Confirm: same membership, next epoch.  Also supersedes
                # a pending attempt of our own whose proposal no longer
                # matches the detector (e.g. it tried to revive a peer
                # that has since fallen silent): the stuck token dies by
                # abandonment and the confirm — which circulates live
                # members only — unblocks everyone promised to us.
                core.stats_confirm_reconfigs += 1
                self._propose_view(view.dead, ())
            return
        proposed_dead = (view.dead | to_exclude) - to_readmit
        # The ack quorum is counted over the *installed* view's alive
        # members only: the token's full circle collects an ack from
        # every proposed-ring member, but revived servers are not part
        # of the view being superseded (and stale members, though
        # nominally in it, skip the promise arbitration) — neither may
        # pad the count, or a minority plus a rejoiner could
        # out-install the real majority.
        old_acks = len(set(view.alive()) - proposed_dead - stale_members)
        if old_acks < view.quorum:
            # No quorum of the current view survives into the proposal:
            # refuse to install.  Both sides of a partition land here
            # symmetrically — neither can move the epoch, so neither
            # can serve, and the first heal re-triggers reconciliation.
            core.stats_quorum_stalls += 1
            core.paused = True
            self._suspicion_paused = True
            return
        # No coordinator election: *every* member that sees the diff
        # proposes once its grace timer fires.  A designated coordinator
        # (say, the suspected server's predecessor) can itself be stale,
        # rejoining or freshly crashed — electing it would deadlock the
        # ring — while concurrent proposals are safe by construction:
        # the per-view promise arbitrates toward the lowest coordinator
        # id and every outranked attempt is abandoned mid-circle.
        core.stats_reconfigs += 1
        self._propose_view(proposed_dead, to_readmit | stale_members)

    def _propose_view(self, proposed_dead, revived) -> None:
        """Coordinator side: circulate a token for the proposed view.

        The coordinator adopts the proposed membership *tentatively*
        (``installed_view``/``installed_epoch`` stay anchored until the
        commit) and sends the token through the ordinary control
        pipeline.  Routing through the ring — never directly to the
        proposal's first hop — is what keeps the happens-before between
        a just-created commit and a follow-up proposal: the token rides
        the same FIFO links behind the commit, so no receiver ever sees
        a proposal based on a view it has not installed yet.
        """
        core = self.core
        token = core._new_token(core.installed_epoch + 1, proposed_dead, revived)
        self._attempt_nonce = token.nonce
        self._promise = (core.installed_epoch, core.server_id, token.nonce)
        core._reroute(core.installed_view.at_epoch(token.epoch, frozenset(token.dead)))
        core.control_queue.append(token)

    # -- epochs: the guard, staleness, demotion --------------------------

    def epoch_guard(self, message: RingMessage, sender: Optional[int]) -> bool:
        """Data traffic is valid only within the sender's and receiver's
        *common* installed view; returns whether ``message`` was rejected.

        Traffic from an older epoch is a wrongly-suspected (or healed)
        server that does not know it was excluded — tell it; traffic
        from a newer epoch means *we* are the stale one (possible only
        on reordered seams) and must not process writes we cannot place.
        The rejection touches only stats and the outbox — nothing the
        snapshot covers.
        """
        core = self.core
        epoch = core.installed_epoch
        if not isinstance(message, _EPOCH_GUARDED) or message.epoch == epoch:
            return False
        core.stats_stale_epoch_dropped += 1
        if message.epoch < epoch and sender is not None:
            self._notify_stale(sender)
        return True

    def _notify_stale(self, peer: int) -> None:
        """Queue a StaleEpochNotice to ``peer``, once per installed epoch."""
        core = self.core
        if self._stale_notified.get(peer) == core.installed_epoch:
            return
        self._stale_notified[peer] = core.installed_epoch
        notice = StaleEpochNotice(core.installed_epoch, core.server_id)
        core.outbox.append((peer, notice))

    def on_message(self, message: RingMessage) -> None:
        core = self.core
        if isinstance(message, ReadFence):
            # A fence from the predecessor (the epoch guard already ran).
            if message.origin == core.server_id:
                self._complete_fence(message)
            else:
                core.fence_queue.append(message)
        elif isinstance(message, StaleEpochNotice):
            # The ring installed views we never saw: stop and rejoin.
            if message.epoch > core.installed_epoch and not core.rejoining:
                self._enter_rejoining()
        else:
            raise ProtocolError(f"unexpected ring message: {message!r}")

    def _enter_rejoining(self) -> None:
        """Demote this live-but-stale server to a rejoiner.

        Same posture as a restarted server: paused, deferring reads,
        announcing itself until a sponsor's revived reconfiguration
        commit carries the merged state (including this server's
        recovered pending writes) back to it.  Nothing is discarded —
        the fold-in merge is what redistributes the pending set.  A
        rejoiner must re-earn its lease after the fold-in merge; until
        then nothing may be served locally, and any fence in flight died
        with our ring membership.
        """
        core = self.core
        core.rejoining = True
        core.paused = True
        core._rejoin_sponsor = None
        self._suspicion_paused = False
        self._attempt_nonce = None
        self._promise = None
        core.values.abort_reads()
        self._drop_lease()
        core._lease_waitout = False

    def on_rejoin_request(self, message: RejoinRequest) -> None:
        """Sponsorship is folded into the proposal pipeline: record the
        announcement and let the grace-delayed reconciliation carry the
        rejoiner as ``revived`` in the next proposal.

        Unlike the crash-stop sponsor, a rejoiner still *in* the
        installed view needs this too: it restarted — or was demoted by
        the epoch guard — holding stale state, and only a revived-marked
        merge catches it up.  "Down" for a sponsor under an imperfect
        detector means no heartbeat evidence of life: while we still
        suspect the announcer, the record stays parked — folding in a
        server we cannot hear would bounce straight back out.
        """
        core = self.core
        rid = message.server_id
        if message.epoch > core.installed_epoch:
            return  # a confused rejoiner cannot drag the ring back
        promise = self._promise
        if promise is not None and promise[1] == rid and message.epoch <= promise[0]:
            # The coordinator we promised restarted, or was demoted, from
            # the view its token was built on: the attempt's nonce died
            # with its memory, so the token can no longer install and the
            # view may move on without it.
            self._promise = None
        if core.rejoining:
            return
        if rid not in self._announced_rejoiners:
            # Count rejoiners taken on, not their announcement retries
            # (the crash-stop sponsor counts once per splice).
            core.stats_rejoins_sponsored += 1
        self._announced_rejoiners[rid] = message.epoch
        if rid not in self.suspected:
            core.reconcile_due = True

    # -- tokens and commits ----------------------------------------------

    def admit_token(self, token: ReconfigToken) -> bool:
        """Epoch + promise arbitration for one view transition.

        A token is admitted when it is built on exactly this server's
        installed view (``epoch == installed + 1`` — the ack quorum it
        collects must anchor to the view it supersedes) and it wins the
        per-view promise: at most one *admitted* proposal per installed
        view, ties broken toward the lower coordinator id, with a
        coordinator's fresh retry replacing its own older promise.
        Admitting a competitor's token abandons any in-flight attempt of
        our own — the abandoned token keeps circulating but its return
        is ignored, so two proposals can never both install.  A token
        reviving *us* is exempt from the base check: catching a stale
        server up is the one sanctioned epoch jump, and the rejoiner is
        deliberately not counted toward the quorum.
        """
        core = self.core
        if token.coordinator == core.server_id:
            # Our own token came back: valid only if it is our current
            # attempt and nothing installed meanwhile.  Its full circle
            # around the proposed ring *is* the ack quorum of the old
            # view: the proposal was quorum-checked against the installed
            # view, and every proposed member forwarded the token.
            admitted = (
                token.epoch == core.installed_epoch + 1
                and token.nonce == self._attempt_nonce
            )
        else:
            admitted = self._arbitrate(token)
            if not admitted:
                core.stats_epoch_rejected_reconfigs += 1
        if admitted:
            # Tentative *wholesale* adoption of the proposed membership:
            # the token's dead set replaces local state (a receiver's
            # private suspicions must not leak into the proposal), and
            # routing follows the proposed ring from here on.
            core._reroute(core.ring.at_epoch(token.epoch, _proposed_dead(token)))
        return admitted

    def _arbitrate(self, token: ReconfigToken) -> bool:
        """Whether a competitor's token is admitted (see
        :meth:`admit_token`); a refusal may tell a stale proposer so, or
        reveal that *we* are the stale one."""
        core = self.core
        if core.server_id in token.revived:
            return token.epoch > core.installed_epoch
        if token.epoch != core.installed_epoch + 1:
            if token.epoch <= core.installed_epoch:
                # A healed minority (or superseded attempt) proposing
                # from a view the ring has left behind: tell it.
                self._notify_stale(token.coordinator)
            else:
                # A proposal from beyond our next epoch is proof the
                # ring installed views we never saw (a commit can die
                # mid-circle when a member crashes while it circulates,
                # leaving us behind): same signal as a StaleEpochNotice.
                self._enter_rejoining()
            return False
        if token.coordinator in self.suspected:
            # A straggling token from a coordinator we believe gone
            # (delivered late across a heal, or its sender crashed after
            # sending): promising it would wedge this view on an attempt
            # that can never complete.  If the suspicion is wrong the
            # coordinator simply retries — liveness cost only.
            return False
        promise = self._promise
        if promise is not None and promise[0] == core.installed_epoch:
            _base, coordinator, nonce = promise
            stale_retry = token.coordinator == coordinator and token.nonce < nonce
            if stale_retry or token.coordinator > coordinator:
                return False  # outranked: the promised attempt proceeds
        self._promise = (core.installed_epoch, token.coordinator, token.nonce)
        if self._attempt_nonce is not None:
            # We had our own proposal in flight and just admitted a
            # higher-priority one: abandon ours (burning a persisted
            # nonce makes our returning token unrecognisable).
            core._next_nonce()
            self._attempt_nonce = None
        return True

    def merged_membership(self, token: ReconfigToken) -> tuple[int, frozenset]:
        """The proposed membership is fixed by the coordinator: the token
        gathers *state*, not exclusions, and keeps its epoch."""
        return token.epoch, _proposed_dead(token)

    def admit_commit(self, commit: ReconfigCommit) -> bool:
        core = self.core
        if commit.coordinator == core.server_id:
            return False  # full circle; applied when created
        if commit.epoch != core.installed_epoch + 1 and (
            core.server_id not in commit.revived
            or commit.epoch <= core.installed_epoch
        ):
            # Same chain discipline as tokens: a commit installs only
            # over the view it superseded; the one sanctioned jump is
            # the fold-in of the stale server it revives.
            core.stats_epoch_rejected_reconfigs += 1
            if commit.epoch > core.installed_epoch + 1 and not core.rejoining:
                self._enter_rejoining()
            return False
        return True

    def install(self, commit: ReconfigCommit) -> bool:
        """Install the committed view: the epoch transition point.

        From here on, traffic of older epochs is rejected, and newly
        excluded members that may still be alive are told directly.
        With leases the notice is backed by an invariant: an install
        that excludes members also starts the old-epoch lease *wait-out*
        — no new-epoch write may complete until every lease granted
        under the superseded view has provably expired on its holder's
        clock — so even an excluded server that hears nothing (the
        one-way-partition case the notices cannot reach) stops serving
        leased reads before any conflicting write exists.  Without
        leases the notices remain best-effort (see
        docs/reconfiguration.md).
        """
        core = self.core
        excluded = core.installed_view.dead | {core.server_id}
        newly_dead = frozenset(commit.dead) - excluded
        core._install_view(
            core.ring.at_epoch(commit.epoch, _proposed_dead(commit)), commit
        )
        self._announced_rejoiners.clear()  # still-stale members re-announce
        self._promise = None  # promises are per installed view
        if commit.coordinator == core.server_id:
            self._attempt_nonce = None
        core.values.abort_reads()
        # Our own lease was granted under the superseded epoch, in-flight
        # fences carry its stamp, and a re-commit stashed by a previous
        # wait-out is obsolete: this install's merge carried those
        # pending writes and the coordinator re-commits them afresh.
        self._drop_lease()
        # Members were excluded: their leases (and any lease the old
        # view granted) may live up to the full duration plus drift;
        # gate new-epoch writes until that horizon passes.  Confirm and
        # revive installs exclude nobody and need no wait — the commit
        # itself circulates ahead of any new-epoch data on FIFO links.
        core._lease_waitout = self._leases and bool(newly_dead)
        if core._lease_waitout:
            core.lease_waitout_due = True
            core.stats_lease_waitouts += 1
        for peer in sorted(newly_dead):
            # Best-effort fence: if the excluded peer is actually alive
            # (wrong suspicion), the notice demotes it to a rejoiner; if
            # it is dead, the frame dies in transit.
            self._notify_stale(peer)
        return True

    def resumed(self) -> None:
        """The installed view may not match what the detector says:
        leftover suspicions of still-in-view members mean we must not
        serve (re-pause, and ask for a new proposal); excluded members
        whose heartbeats resumed deserve re-admission."""
        core = self.core
        self._suspicion_paused = False
        if any(core.ring.is_alive(s) for s in self.suspected):
            core.paused = True
            self._suspicion_paused = True
            core.reconcile_due = True
        if core.ring.dead - self.suspected:
            core.reconcile_due = True

    # -- read leases (docs/leases.md) ------------------------------------

    def on_lease_update(self, valid: bool, epoch: int) -> None:
        self.lease_valid = valid
        self.lease_epoch = epoch if valid else -1

    def may_grant_lease(self, peer: int) -> bool:
        core = self.core
        return (
            self._leases
            and not (core.rejoining or core.paused)
            and peer != core.server_id
            and core.installed_view.is_alive(peer)
            and peer not in self.suspected
            and peer not in self._announced_rejoiners
        )

    def stash_recommits(self, tags: list[Tag]) -> None:
        """The coordinator's post-merge re-commits, held back while the
        wait-out runs: completing a merged write before every old lease
        died could hide it from a leaseholder's reads."""
        self._waitout_commit_tags = tags

    def lease_waitout_elapsed(self, epoch: int) -> None:
        core = self.core
        if epoch != core.installed_epoch or not core._lease_waitout:
            return  # a newer install started its own wait-out
        core._lease_waitout = False
        core.commit_queue.extend(self._waitout_commit_tags)
        self._waitout_commit_tags = []

    def _drop_lease(self) -> None:
        """Nothing may be served against the lease, a fence or a stashed
        re-commit of the view that just ended.  The per-read epoch check
        already refuses the old lease; dropping the flag keeps the
        runtime's next push authoritative.  Fence-waiting reads re-enter
        via the deferred queue, so after resume they re-evaluate the
        lease and re-fence under the new epoch instead of waiting for a
        circle that will never close."""
        self.lease_valid = False
        self.lease_epoch = -1
        self._waitout_commit_tags = []
        waiters, self._fence_waiters = self._fence_waiters, {}
        for nonce in sorted(waiters):
            self.core.deferred_reads.extend(waiters[nonce])

    def _leased_read(self, client: int, message: ClientRead) -> None:
        """Serve locally only while the lease is valid *for the installed
        epoch* and local state covers the client's session; otherwise
        prove epoch liveness with a full-circle fence before serving."""
        core = self.core
        if (
            self.lease_valid
            and self.lease_epoch == core.installed_epoch
            and self._session_covered(message.session)
        ):
            core.stats_lease_local_reads += 1
            core._serve_read_locally(client, message)
        else:
            core.stats_lease_fallbacks += 1
            self._fence_read(client, message)

    def _session_covered(self, session: Optional[Tag]) -> bool:
        """Whether local state covers the client's session tag.

        Every tag a client observed belongs to a *completed* write, and
        completion requires the pre-write's full circle — so a current
        ring member has the tag installed or pending.  A gap means this
        server's state predates something the client already saw (a
        lease valid for a stale epoch is excluded before this check, so
        in practice: a sharded client whose session tag belongs to
        another block); the fence fallback covers it.
        """
        core = self.core
        if session is None or session <= core.tag:
            return True
        return session <= core.pending.maxlex()

    def _fence_read(self, client: int, message: ClientRead) -> None:
        """Fallback read: circulate a fence; serve when it returns.

        One fence per read (not batched): the fence *is* the read's ring
        cost, and the circulating baseline the lease win is measured
        against must genuinely pay it.
        """
        core = self.core
        if core.alone:
            # A sole survivor has no circle to prove and nobody whose
            # view could move without it; local state is the register.
            core._serve_read_locally(client, message)
            return
        self._fence_nonce += 1
        self._fence_waiters[self._fence_nonce] = [(client, message)]
        fence = ReadFence(self._fence_nonce, core.server_id, core.installed_epoch)
        core.fence_queue.append(fence)

    def _complete_fence(self, message: ReadFence) -> None:
        """Our fence closed its circle under the installed epoch: every
        ring member forwarded it, so this view was live for the whole
        circulation and local committed state covers every write
        completed before the fence left.  Serve the waiting reads from
        local state — without the lease check, and without the session
        check (the full circle pulled every completed write's pre-write
        through us; a session tag from another shard's block is the one
        thing left uncovered, and the fence is exactly the proof that
        serving current local state is linearizable for *this* block)."""
        core = self.core
        # A missing nonce was superseded at a view change; its reads
        # were re-queued.
        for client, read in self._fence_waiters.pop(message.nonce, ()):
            if core.paused:
                core.deferred_reads.append((client, read))
            else:
                core._serve_read_locally(client, read)
