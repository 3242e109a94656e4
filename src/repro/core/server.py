"""The server state machine of the atomic storage algorithm.

This module implements the paper's pseudocode lines 11–93 as a sans-I/O
state machine, plus the crash-reconfiguration protocol the paper defers to
its full version.  The mapping to the pseudocode:

====================================  =======================================
Pseudocode                            Here
====================================  =======================================
lines 11–17 (initialisation)          :meth:`ServerProtocol.__init__`
lines 18–20 (receive <write> req)     :meth:`_on_client_write`
lines 21–28 (procedure write)         :meth:`_initiate_write`
lines 29–40 (receive <pre_write>)     :meth:`_on_pre_write`
lines 41–52 (receive <write>)         :meth:`_process_commits`
lines 53–75 (task queue handler)      :meth:`next_ring_batch` +
                                      :class:`~repro.core.fairness.FairScheduler`
lines 76–84 (receive <read>)          :meth:`_on_client_read`
lines 85–93 (upon pj crashed)         :class:`~repro.core.views.CrashStopViews`
                                      behind :meth:`on_server_crash`
"v" wherever the pseudocode stores,   ``self.values`` — a value backend
forwards or returns a value           (:mod:`repro.core.values`)
who may change the ring, and how      ``self.views`` — a view policy
                                      (:mod:`repro.core.views`)
====================================  =======================================

The pseudocode moves whole values; this class never looks inside one.
What a server stores for a write, what the pre-write carries, when it
may be forwarded and how a read materialises the committed value are
questions put to the backend chosen at construction
(:class:`~repro.core.values.ReplicatedValues`, the paper's answers, or
:class:`~repro.core.values.CodedValues`), so the write path below reads
as lines 21–52 plus the dedup/supersede rules documented here.  In the
same way this class merges state around the ring without deciding *when*
a membership change starts, which proposal wins or what installing it
means: those are questions put to the view policy chosen at construction
(:class:`~repro.core.views.CrashStopViews`, the paper's answers under the
perfect detector, or :class:`~repro.core.views.QuorumViews`).

Differences from the published pseudocode (deliberate fixes or stated
optimisations):

* **Commit messages carry tags only, and piggyback.**  Every server
  stores a pending write's *value* when it forwards the pre-write, so the
  second-phase ("write") message does not need to repeat the value;
  commit tags ride on the next outgoing ring message (Section 4.2's
  "write messages are piggybacked ... without the need for explicit
  acknowledgements").
* **Staleness-terminated commits.**  A commit tag circulates until it
  reaches the first server that already processed it (tracked by a
  per-origin committed-timestamp watermark).  In the failure-free case
  that is one full circle plus one hop; the origin acks its client when
  the tag comes back around.  Unlike terminate-at-origin, this rule stays
  correct when a commit is re-issued by a *different* server during crash
  recovery.
* **Duplicate filtering.**  The pseudocode re-adds ``msg.tag`` to the
  pending set whenever a message is forwarded (line 71), which would
  wedge reads if a crash-retransmitted duplicate were forwarded after its
  commit.  The watermark plus the pending/queued tag sets drop every
  duplicate.
* **Epoch reconfiguration instead of bare retransmission.**  On a crash,
  the detector (the crashed server's alive predecessor) pushes its state
  to the new successor (pseudocode line 88), then circulates a
  state-merge token around the new ring followed by a commit of the
  merged state, and finally re-commits every surviving pending write.
  This subsumes the pseudocode's retransmission (lines 89–91) and
  additionally resolves writes whose origin crashed — otherwise a read
  could block forever on an orphaned pre-write — and redistributes values
  for pre-writes that died mid-ring.
* **Epoch-guarded, quorum-installed views and read leases** (the
  heartbeat detector's operating mode): suspicion that may be wrong,
  quorum-checked proposals, the per-view promise, epoch-guarded data
  traffic, stale-server demotion, leased reads and their fences.  All of
  it lives in :class:`~repro.core.views.QuorumViews`; see that module,
  docs/reconfiguration.md and docs/leases.md.  Here it shows only as the
  three primitives a policy may call (:meth:`_reroute`,
  :meth:`_install_view`, :meth:`_next_nonce`), the fence queue the ring
  pull drains, and the one write gate (``_lease_waitout``) it toggles.
* **At-most-one commit per client write.**  Aggressive retries can get
  one operation initiated under two tags at two servers concurrently
  (partition-heal bursts make this common); each server endorses at
  most one tag per operation (lowest wins, deterministically), an
  origin only commits a returning pre-write it still endorses, and the
  reconfiguration merge keeps one entry per operation — so one write
  can never acquire two write points.
* **Client-operation deduplication.**  Pre-writes carry the client
  operation id; servers remember the highest completed sequence number
  per client (merged during reconfiguration), so a client retrying a
  write whose ack was lost gets an ack instead of a second write.
* **Superseded-initiation hygiene.**  With aggressive client timeouts a
  retry can land at a server that has not yet seen the original
  pre-write (it is stalled, not lost — the session layer retransmits),
  so the same client operation can be *initiated twice* under different
  tags.  Three rules keep that safe.  (1) A server drops any pre-write
  whose operation it already recorded as completed, so a late duplicate
  circle breaks as soon as the real commit has passed.  (2) Each server
  tracks the highest timestamp it has ever *seen* (``ts_seen``, fed by
  every pre-write, commit, state sync and merge — including dropped
  duplicates) and initiates strictly above it; therefore any write that
  begins after an operation was acknowledged outbids every tag that
  operation was ever initiated under, and a straggler duplicate commit
  can never override a newer value (the monotone install rejects it).
  (3) When a commit completes an operation, same-operation pending
  entries under other tags are zombies: they are dropped, their ack
  waiters are answered with the committed tag, and read thresholds
  referencing them are clamped — likewise at reconfiguration, where the
  merged ``completed_ops`` filters them out of the merged pending set so
  the post-merge re-commit cannot resurrect them.
* **Crash recovery.**  The paper's model is crash-stop; this server
  additionally supports restart-and-rejoin, the recovery model of
  erasure-coded atomic-storage successors.  A server persists a
  write-ahead snapshot (:mod:`repro.core.durable`) before any output
  leaves it: outputs leave only through
  :meth:`~ServerProtocol.drain_replies`,
  :meth:`~ServerProtocol.next_directed_message` and
  :meth:`~ServerProtocol.next_ring_batch`, and each saves a dirty state
  first, whatever the handler did.  After a restart, :meth:`ServerProtocol.restore`
  reloads it and the server comes back *rejoining*: paused, deferring
  reads, and announcing itself (:class:`RejoinRequest`) to a live
  sponsor.  The sponsor folds it back in by coordinating a
  reconfiguration whose token is marked ``revived`` — every receiver
  splices the rejoiner into its ring view before merging, so the token
  and commit traverse the *grown* ring, the rejoiner contributes its
  recovered pending set to the merge, and the commit that ends the
  reconfiguration is exactly the point at which the rejoiner is caught
  up and resumes service.  Snapshotted ``ts_seen`` keeps post-restart
  initiations above every tag the server ever touched, and the
  persisted reconfiguration nonce counter keeps restarted coordinators
  from reusing nonces.
* **Erasure-coded value backend** (``config.value_coding = "coded"``):
  tags, commits and the whole control plane stay replicated while the
  value payload is striped k-of-n across the ring.  All of it — the
  fragment scatter, parked pre-writes, reconstruction on read, fragment
  unions and repair in the reconfiguration token — lives in
  :class:`~repro.core.values.CodedValues`; see that module and
  docs/coding.md.  Here it shows only as :attr:`frag_tag`: the stored
  bytes may lag the tag until the backend repairs them.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Optional

from repro.core.config import ProtocolConfig
from repro.core.durable import ServerSnapshot, SnapshotStore
from repro.core.fairness import INITIATE_OWN, FairScheduler
from repro.core.messages import (
    ClientMessage,
    ClientRead,
    ClientWrite,
    Commit,
    OpId,
    PendingEntry,
    PreWrite,
    ReconfigCommit,
    ReconfigToken,
    RejoinRequest,
    RingMessage,
    StateSync,
    WriteAck,
)
from repro.core.pending import PendingSet
from repro.core.ring import RingView
from repro.core.tags import Tag
from repro.core.values import FRAGMENT_MESSAGES, CodedValues, ReplicatedValues
from repro.core.views import view_policy
from repro.errors import ProtocolError
from repro.runtime.interface import Reply

#: Cap on commit tags per carrier message (bounds message growth under
#: bursts).
_MAX_PIGGYBACKED_COMMITS = 64


class ServerProtocol:
    """A single server of the atomic storage ring (sans-I/O).

    Runtime contract:

    * deliver inbound traffic via :meth:`on_client_message`,
      :meth:`on_ring_message` and :meth:`on_server_crash` (and the
      detector's entry points); each returns the
      :class:`~repro.runtime.interface.Reply` effects to send to
      clients;
    * whenever the outgoing ring link is free, pull directed messages
      with :meth:`next_directed_message`, then — while
      :attr:`has_ring_work` is true — one frame's worth of messages with
      :meth:`next_ring_batch` (:meth:`next_ring_message` is the
      one-message form) and send it to :attr:`successor`; afterwards
      collect replies produced as a side effect with
      :meth:`drain_replies`.  With no ring work, both runtimes skip the
      pull: the fairness counters reset where a pull drains the forward
      queue (line 55), so no empty pull is needed for it.

    Outputs leave only through :meth:`drain_replies`,
    :meth:`next_directed_message` and :meth:`next_ring_batch`, and each
    of them persists a dirty state before it hands anything back, so
    write-ahead holds by construction: no handler persists for itself.
    """

    def __init__(
        self,
        server_id: int,
        ring: RingView,
        config: Optional[ProtocolConfig] = None,
        initial_value: bytes = b"",
        durable: Optional[SnapshotStore] = None,
    ):
        if server_id not in set(ring.members):
            raise ProtocolError(f"server {server_id} not a ring member")
        self.server_id = server_id
        self.ring = ring
        self._follow_ring()
        self.config = (config or ProtocolConfig()).validate()

        #: Owner of everything that depends on how a value is laid out
        #: across the ring (:mod:`repro.core.values`), chosen once.
        self.values = (
            CodedValues if self.config.value_coding == "coded" else ReplicatedValues
        )(self)
        #: The backend's write-path hooks are identities (the paper's
        #: whole-value ring): the per-message path skips them.
        self._passthrough = self.values.passthrough

        #: Durable snapshot store (crash recovery).  When set, the
        #: protocol persists a write-ahead snapshot of its committed and
        #: pending state before any output leaves it, so a restart via
        #: :meth:`restore` never forgets an acknowledged operation.
        self.durable = durable
        self._dirty = False

        # Register state (pseudocode line 12): the tag, and what this
        # server *stores* for it — the value, or its share of it.
        self.value: bytes = self.values.localize(Tag.ZERO, initial_value)
        self.tag: Tag = Tag.ZERO
        #: ``None`` while ``value`` belongs to ``tag``; the older tag it
        #: belongs to while it lags (``_install`` advanced the tag
        #: without bytes to store; the backend repairs it on a read).
        self.frag_tag: Optional[Tag] = None

        # pending_write_set (line 13): tag -> PendingEntry.  The value is
        # kept so commits can be tag-only and reconfiguration can
        # redistribute values.
        self.pending = PendingSet()

        # write_queue (line 15): client writes not yet initiated.
        self.write_queue: deque[tuple[OpId, bytes, int]] = deque()

        # forward_queue + nb_msg (lines 14, 16): the fairness scheduler.
        self.fair: FairScheduler[PreWrite] = FairScheduler(
            server_id, fair=self.config.fair_forwarding
        )
        #: Tags currently sitting in the forward queue (duplicate filter).
        self.queued_tags: set[Tag] = set()

        # Commit tags awaiting transmission to the successor.
        self.commit_queue: deque[Tag] = deque()

        # Highest committed timestamp per origin: the duplicate filter
        # and the termination rule for circulating commits.
        self.watermark: dict[int, int] = {}

        # Highest timestamp ever observed in any tag, including tags of
        # dropped duplicates.  New initiations go strictly above it, so
        # a superseded duplicate's eventual commit can never outbid a
        # write that started after the operation was acknowledged.
        self.ts_seen: int = 0

        # Client-op bookkeeping.
        self.completed_ops: dict[int, int] = {}  # client -> max committed seq
        # The commit tag behind each client's max completed seq, where
        # this server knows it (it processed the commit, resolved the
        # write locally, or learned it from a merge).  Lets a
        # deduplicated retry be acked with the *real* committed tag, so
        # completions stay tagged even when the original ack was lost —
        # the benchmark-scale gate requires 100% tag coverage.
        self.completed_tags: dict[int, Tag] = {}
        self.op_index: dict[OpId, Tag] = {}  # in-flight client write -> tag
        self.ack_waiters: dict[Tag, list[tuple[int, OpId]]] = {}

        # Read waiters (line 81): (threshold tag, client, op).
        self.read_waiters: list[tuple[Tag, int, OpId]] = []

        # Reconfiguration state.
        self.paused = False
        self.control_queue: deque[RingMessage] = deque()
        self.deferred_reads: deque[tuple[int, ClientRead]] = deque()
        self._reconfig_counter = 0
        self._seen_reconfigs: set[tuple[int, int]] = set()  # (coordinator, nonce)

        # Crash-recovery state.  A restored server stays in ``rejoining``
        # (paused, announcing itself) until a reconfiguration commit
        # folds it back into the ring; a live server sponsoring someone
        # else's rejoin defers the request while it is itself paused.
        self.rejoining = False
        self.restart_generation = 0
        self._rejoin_sponsor: Optional[int] = None
        self._deferred_rejoins: deque[RejoinRequest] = deque()

        # The committed view.  ``installed_epoch`` is the epoch of the
        # last *committed* view — the reference every guard compares
        # against; ``self.ring`` may run ahead tentatively while a
        # reconfiguration token circulates (routing follows the
        # proposal), quorum and base-epoch checks always anchor at
        # ``installed_view``.  ``view_log`` records every quorum install
        # for the epoch-agreement property tests.
        self.installed_epoch = ring.epoch
        self.installed_view = ring
        self.view_log: list[tuple[int, int, int]] = []  # (epoch, coordinator, nonce)
        #: Set by handlers when the runtime should (re-)evaluate the
        #: view proposal after the detector's grace delay.
        self.reconcile_due = False
        #: Directed out-of-ring-order messages (stale-epoch notices,
        #: fragment traffic), pulled by the runtime ahead of ring traffic.
        self.outbox: deque[tuple[int, RingMessage]] = deque()
        #: Fences awaiting transmission to the successor (ours and
        #: forwarded), drained behind commit traffic when not paused.
        self.fence_queue: deque[RingMessage] = deque()
        #: While true (set by the view policy at an install that
        #: excluded members), new write initiations are gated until
        #: every lease granted under the old epoch has provably expired
        #: (HeartbeatConfig.waitout).  One plain attribute, because the
        #: write path reads it for every pull.
        self._lease_waitout = False
        #: Set with ``_lease_waitout``; the runtime consumes it (clearing
        #: it) and arms the wait-out timer, mirroring the
        #: ``reconcile_due`` handshake.
        self.lease_waitout_due = False

        #: Owner of every membership decision (:mod:`repro.core.views`),
        #: chosen once; the two per-message hooks are resolved here so a
        #: crash-stop server makes no policy call on the data path.
        self.views = view_policy(self)
        self._epoch_guard = self.views.epoch_guard
        self._serve_read = self.views.serve_read

        self._replies: list[Reply] = []

        # Statistics (read by the benchmark harness and tests).
        self.stats_reads_served = 0
        self.stats_reads_waited = 0
        self.stats_writes_initiated = 0
        self.stats_forwards = 0
        self.stats_commits_processed = 0
        self.stats_duplicates_dropped = 0
        self.stats_superseded_dropped = 0
        self.stats_reconfigs = 0
        self.stats_rejoins_sponsored = 0
        self.stats_stale_epoch_dropped = 0
        self.stats_quorum_stalls = 0
        self.stats_epoch_rejected_reconfigs = 0
        self.stats_confirm_reconfigs = 0
        self.stats_lease_local_reads = 0
        self.stats_lease_fallbacks = 0
        self.stats_lease_waitouts = 0
        self.stats_coding_fragment_stores = 0
        self.stats_coding_cache_reads = 0
        self.stats_coding_reconstructions = 0
        self.stats_coding_repairs = 0
        self.stats_coding_pending_dropped = 0

    # ------------------------------------------------------------------
    # Durable state (crash recovery)
    # ------------------------------------------------------------------

    def snapshot(self) -> ServerSnapshot:
        """An immutable copy of everything a restart must reload.

        The forward queue is deliberately excluded: a queued pre-write
        still lives in its sender's pending set, and the rejoin merge
        redistributes it.  Session-layer state is likewise excluded — a
        restart is a new channel.
        """
        # This method runs once per ring send (write-ahead persistence),
        # so the dedup tables are captured by ``dict.copy()`` — one
        # C-level copy each, insertion order kept, nothing allocated per
        # client — behind a read-only view; ``restore`` copies them back
        # into dicts.  The ring's tuples are built once per ring change.
        return ServerSnapshot(
            server_id=self.server_id,
            members=self._ring_tuples[0],
            dead=self._ring_tuples[1],
            tag=self.tag,
            value=self.value,
            ts_seen=self.ts_seen,
            watermark=MappingProxyType(self.watermark.copy()),
            completed_ops=MappingProxyType(self.completed_ops.copy()),
            pending=tuple(self.pending.values()),
            reconfig_counter=self._reconfig_counter,
            epoch=self.installed_epoch,
            completed_tags=MappingProxyType(self.completed_tags.copy()),
            frag_tag=self.frag_tag,
        )

    @classmethod
    def restore(
        cls,
        server_id: int,
        members,
        snapshot: Optional[ServerSnapshot],
        config: Optional[ProtocolConfig] = None,
        durable: Optional[SnapshotStore] = None,
        *,
        initial_value: bytes = b"",
        alone: bool = False,
        generation: int = 1,
    ) -> "ServerProtocol":
        """Rebuild a server from its durable snapshot after a restart.

        ``snapshot`` may be ``None`` (the server crashed before it ever
        persisted); recovery then starts from initial state —
        ``initial_value`` must match what the server was originally
        built with, or a pre-populated register would restart empty.  With
        ``alone=False`` the server comes back *rejoining*: paused,
        deferring reads, and announcing itself until a reconfiguration
        commit folds it back into the ring with the merged state.  With
        ``alone=True`` (the host found no serving peer and no peer that
        crashed after this one) there is nobody to rejoin: the server
        resumes immediately as the sole survivor and resolves its
        recovered pending writes locally.
        """
        members = tuple(members)
        if alone:
            dead = frozenset(members) - {server_id}
        elif snapshot is not None:
            dead = frozenset(snapshot.dead) - {server_id}
        else:
            dead = frozenset()
        proto = cls._recovered(
            server_id, members, dead, snapshot, config, initial_value, durable
        )
        if snapshot is not None:
            proto.pending = PendingSet(snapshot.pending)
            proto.op_index = {entry.op: entry.tag for entry in snapshot.pending}
        proto.restart_generation = generation
        if alone:
            # Sole survivor: recovered pending writes commit locally, in
            # tag order, exactly as a live server resolves them when the
            # ring shrinks to one.
            if proto.pending:
                proto._resolve_alone()  # no waiter survives a restart to answer
        else:
            proto.rejoining = True
            proto.paused = True
        proto._dirty = True
        proto._maybe_persist()
        return proto

    @classmethod
    def _recovered(
        cls, server_id, members, dead, snapshot, config, initial_value, durable
    ) -> "ServerProtocol":
        """A server over ``members`` holding ``snapshot``'s committed
        state (everything but the pending set, whose fate differs
        between a restart and a block transfer)."""
        epoch = snapshot.epoch if snapshot is not None else 0
        proto = cls(
            server_id, RingView(members, dead, epoch), config, initial_value, durable
        )
        if snapshot is not None:
            proto.value = snapshot.value
            proto.tag = snapshot.tag
            proto.frag_tag = snapshot.frag_tag
            proto.ts_seen = snapshot.ts_seen
            proto.watermark = dict(snapshot.watermark)
            proto.completed_ops = dict(snapshot.completed_ops)
            proto.completed_tags = dict(snapshot.completed_tags)
            proto._reconfig_counter = snapshot.reconfig_counter
        return proto

    @classmethod
    def from_transfer(
        cls,
        server_id: int,
        members,
        snapshot: Optional[ServerSnapshot],
        config: Optional[ProtocolConfig] = None,
        durable: Optional[SnapshotStore] = None,
        *,
        initial_value: bytes = b"",
        generation: int = 0,
    ) -> "ServerProtocol":
        """Adopt a migrated block's state on a *new* ring (live migration).

        The third install mode, distinct from :meth:`restore`'s two: the
        rebalancer drained the source ring before snapshotting, so the
        snapshot carries no pending writes, and every member of the
        destination ring installs the *same* state over the same
        fully-alive view — there is nothing to merge and nobody to
        rejoin (``restore(alone=False)`` would leave all destination
        members paused waiting to sponsor each other).  The server starts
        serving the moment the placement cutover routes traffic to it.

        The view epoch continues from the snapshot's: a frame from the
        source ring's superseded incarnation that survives in the fabric
        can never outrank the destination's installed epoch.
        """
        proto = cls._recovered(
            server_id, tuple(members), frozenset(), snapshot, config,
            initial_value, durable,
        )
        # pending is deliberately *not* installed: the drain predicate
        # (:meth:`quiescent` on every alive source member) guarantees
        # the snapshot was taken with an empty pending set, and a
        # non-empty one here would mean the handoff raced the drain.
        if snapshot is not None and snapshot.pending:
            raise ProtocolError(
                f"block transfer snapshot for server {server_id} carries "
                f"{len(snapshot.pending)} pending write(s); the source "
                "ring was not drained"
            )
        proto.restart_generation = generation
        proto._dirty = True
        proto._maybe_persist()
        return proto

    def quiescent(self) -> bool:
        """No client-visible work in flight on this block.

        The migration drain predicate: a snapshot taken while every
        alive member of the source ring reports quiescent carries no
        pending writes, no queued client work and no circulating ring
        traffic originated here — so the destination ring can adopt it
        with :meth:`from_transfer` without a merge.  A rejoining or
        paused member is *not* quiescent: its state may trail the ring.
        """
        return not (
            self.pending
            or self.write_queue
            or self.commit_queue
            or self.queued_tags
            or self.fence_queue
            or self.ack_waiters
            or self.read_waiters
            or self.deferred_reads
            or self.rejoining
            or self.paused
            or self.has_ring_work
        )

    def queue_rejoin_announce(self, sponsor: int) -> None:
        """Target the next rejoin announcement at ``sponsor``.

        The runtime picks sponsors (any server it believes alive) and
        re-queues announcements on a timer until :attr:`rejoining`
        clears; the request itself is idempotent at the sponsor.
        """
        if self.rejoining:
            self._rejoin_sponsor = sponsor

    def next_directed_message(self) -> Optional[tuple[int, RingMessage]]:
        """The next out-of-ring-order ``(destination, message)``, if any.

        Pulled by the runtime's outbound pump ahead of ring traffic:
        the queued rejoin announcement first (the rejoiner is not part
        of anyone's ring yet), then stale-epoch notices and
        reconfiguration tokens whose first hop differs from the
        installed successor.
        """
        sponsor = self._rejoin_sponsor
        if sponsor is not None:
            self._rejoin_sponsor = None
            directed = sponsor, RejoinRequest(
                self.server_id, self.restart_generation, self.installed_epoch
            )
        elif self.outbox:
            directed = self.outbox.popleft()
        else:
            return None
        self._maybe_persist()
        return directed

    def complete_rejoin_alone(self) -> list[Reply]:
        """End a rejoin with no live sponsor: this server is the ring.

        The asyncio runtime calls this when every other server refuses
        its dials — with a perfect failure detector "nobody answers"
        *means* "nobody is alive".  Recovered pending writes resolve
        locally, exactly as a live sole survivor resolves them when the
        ring shrinks to one.
        """
        if self.rejoining:
            members = self.ring.members
            self.installed_epoch = max(self.ring.epoch, self.installed_epoch) + 1
            self.ring = self.installed_view = RingView(
                members, frozenset(members) - {self.server_id}, self.installed_epoch
            )
            self._follow_ring()
            self._dirty = True  # the new view, whether or not anything commits
            self.rejoining = False
            self._rejoin_sponsor = None
            self._resolve_alone()
        return self.drain_replies()

    def _maybe_persist(self) -> None:
        """Save the snapshot if covered state changed since the last
        save.  Called by the three output methods (and at construction
        by :meth:`restore` / :meth:`from_transfer`), never by a handler."""
        if self._dirty and self.durable is not None:
            self.durable.save(self.snapshot())
            self._dirty = False

    # ------------------------------------------------------------------
    # Public protocol surface
    # ------------------------------------------------------------------

    def _follow_ring(self) -> None:
        """``self.ring`` was set: refresh the facts of it that every pull
        or save reads, attributes so that reading them costs no call —
        ``successor`` (pseudocode ``pnext``), ``alone`` (this server is
        the only survivor) and the member and dead tuples a snapshot
        carries.  Every assignment to ``self.ring`` is followed by this."""
        self.successor: int = self.ring.successor(self.server_id)
        self.alone: bool = self.ring.num_alive == 1
        self._ring_tuples = (tuple(self.ring.members), tuple(sorted(self.ring.dead)))

    @property
    def reconfig_blocked(self) -> bool:
        """Whether a view transition this server waits on may need a
        push: it paused over a suspicion, or its own proposal is still
        in flight.  Read-only, for the runtime's reconcile watchdog
        (heartbeat detector only)."""
        return self.views.blocked

    def on_client_message(self, client: int, message: ClientMessage) -> list[Reply]:
        """Handle a client request (pseudocode lines 18–20 and 76–84)."""
        if type(message) is ClientWrite:
            self._on_client_write(client, message)
        elif type(message) is ClientRead:
            self._on_client_read(client, message)
        else:
            raise ProtocolError(f"unexpected client message: {message!r}")
        return self.drain_replies()

    def on_ring_message(
        self, message: RingMessage, sender: Optional[int] = None
    ) -> list[Reply]:
        """Handle a message from the ring predecessor.

        ``sender`` is the hop sender's server id when the runtime knows
        it; the epoch guard uses it to notify a stale peer that the ring
        moved on without it.
        """
        guard = self._epoch_guard
        if guard is not None and guard(message, sender):
            return self.drain_replies()  # rejected by the epoch guard
        # One dispatch per message; the data-path kinds are compared by
        # type (no call) before the rarer ones.
        kind = type(message)
        if kind is PreWrite:
            if message.commits:
                self._process_commits(message.commits)
            self._on_pre_write(message)
        elif kind is Commit:
            self._process_commits(message.commits)
        elif kind is StateSync:
            self._process_commits(message.commits)
            self._on_state_sync(message)
        elif kind is ReconfigToken:
            self._on_reconfig_token(message)
        elif kind is ReconfigCommit:
            self._on_reconfig_commit(message)
        elif kind is RejoinRequest:
            self._on_rejoin_request(message)
        elif isinstance(message, FRAGMENT_MESSAGES):
            self.values.on_message(message)
        else:
            self.views.on_message(message)  # fences, notices; else raises
        return self.drain_replies()

    # ------------------------------------------------------------------
    # The detector's entry points.  Each ends in the drain (and so in
    # the persist); what it *means* is the view policy's
    # (repro.core.views), and each exists only under the detector that
    # calls it.
    # ------------------------------------------------------------------

    def on_server_crash(self, crashed: int) -> list[Reply]:
        """Perfect-failure-detector notification (pseudocode lines 85–93,
        :meth:`CrashStopViews.on_server_crash
        <repro.core.views.CrashStopViews.on_server_crash>`)."""
        self.views.on_server_crash(crashed)
        return self.drain_replies()

    def on_suspect(self, peer: int) -> list[Reply]:
        """Heartbeat-detector suspicion of ``peer`` (may be wrong!).

        Unlike :meth:`on_server_crash`, suspicion never splices the
        view.  It (1) pauses this server — if a view member may be gone,
        locally-served reads are no longer provably fresh, and a server
        on the wrong side of a partition must stop serving *before* the
        other side installs a view without it — and (2) asks the runtime
        to re-evaluate the view proposal after the detector's grace
        delay (:attr:`reconcile_due`).
        """
        self.views.on_suspect(peer)
        return self.drain_replies()

    def on_unsuspect(self, peer: int) -> list[Reply]:
        """A suspected peer's heartbeat arrived late: it is alive.

        The wrong suspicion is withdrawn; if the peer was already
        excluded from the installed view, re-admitting it takes a
        reconfiguration (the runtime is asked to propose one), and if we
        paused over a suspicion that has now evaporated, a *confirm*
        reconfiguration proves the view is still live before we resume.
        """
        self.views.on_unsuspect(peer)
        return self.drain_replies()

    def propose_reconfig(self) -> list[Reply]:
        """Re-evaluate the view proposal (runtime-called, grace-delayed).

        Compares the detector's suspicion set against the installed
        view and, when this server is the responsible coordinator and
        the proposed view retains an ack quorum of the current one,
        launches the state-merge reconfiguration.  Without quorum the
        proposal is *refused*: the server stays paused — wrong suspicion
        costs liveness, never linearizability — until a heal shrinks the
        suspicion set.  A suspicion-paused server whose suspicions have
        all evaporated runs a membership-preserving *confirm*
        reconfiguration: its commit is the proof that the current view
        (not a successor installed elsewhere) is still live, which a
        healed minority cannot produce — its stale-epoch token earns a
        :class:`StaleEpochNotice` and a rejoin instead.
        """
        self.views.propose_reconfig()
        return self.drain_replies()

    def on_lease_update(self, valid: bool, epoch: int) -> list[Reply]:
        """Runtime-pushed lease validity transition (docs/leases.md).

        ``epoch`` is the epoch the runtime's :class:`~repro.fd.heartbeat.
        ReadLease` found every required grant stamped with; serving
        additionally requires it to equal :attr:`installed_epoch` at
        read time (checked per read, so a view install between updates
        cannot be served against).
        """
        self.views.on_lease_update(valid, epoch)
        return self.drain_replies()

    def may_grant_lease(self, peer: int) -> bool:
        """Grantor-side gate: may this server extend ``peer``'s lease?

        Grants flow only toward peers the grantor currently believes
        are full, caught-up members of its installed view: never to a
        suspect (suspicion and a live grant would let the detector's
        two hands disagree), never to an announced rejoiner (it holds
        stale state until the revived merge catches it up — a lease
        would let it serve that state), and never while this server is
        itself paused, rejoining, or mid-proposal (its own view may be
        about to move).
        """
        return self.views.may_grant_lease(peer)

    def lease_waitout_elapsed(self, epoch: int) -> list[Reply]:
        """The old-epoch lease wait-out for ``epoch`` ran its course.

        Every lease granted under the superseded view has now provably
        expired on its holder's clock (drift bound included), so the new
        epoch may complete writes: initiation un-gates, and the
        coordinator's stashed post-merge re-commits flow.  A stale
        timer — a newer view installed meanwhile — is ignored; that
        install started its own wait-out.
        """
        self.views.lease_waitout_elapsed(epoch)
        return self.drain_replies()

    @property
    def has_ring_work(self) -> bool:
        """Whether a pull — :meth:`next_directed_message`, then
        :meth:`next_ring_batch` — would return a message.  False means a
        runtime need not pull at all."""
        if self.control_queue or self.outbox or self._rejoin_sponsor is not None:
            return True
        if self.paused or self.alone:
            return False
        return bool(
            self.commit_queue or self.write_queue or self.fence_queue or self.fair.size
        )

    def next_ring_message(self) -> Optional[RingMessage]:
        """Pull the next message for the successor (the ``queue handler``
        task, lines 53–75, plus commit piggybacking): the one-message
        form of :meth:`next_ring_batch`."""
        batch = self.next_ring_batch(1)
        return batch[0] if batch else None

    def next_ring_batch(self, limit: int) -> list[RingMessage]:
        """Pull up to ``limit`` successor-bound messages for one wire
        frame (:attr:`ProtocolConfig.batch_max_messages`).

        Initiating or forwarding mutates the pending set, so the state
        is persisted before the batch is handed back (write-ahead of the
        wire), once per batch rather than per message.  The drain stops
        early if the successor changes between pulls (a control message
        may retarget the ring) so one frame never mixes destinations.
        """
        batch: list[RingMessage] = []
        successor = self.successor
        for _ in range(limit):
            message = self._next_ring_message()
            if message is None:
                break
            batch.append(message)
            if self.successor != successor:
                break
        # Unconditional: a drain that yields no message may still have
        # mutated covered state (e.g. a duplicate write absorbed during
        # initiation), and _maybe_persist is a no-op when nothing is
        # dirty anyway.
        self._maybe_persist()
        return batch

    def _next_ring_message(self) -> Optional[RingMessage]:
        if self.control_queue:
            return self._attach_commits(self.control_queue.popleft())
        if self.paused or self.alone:
            return None

        choice = self.fair.choose(
            # Initiation is gated while an old-epoch lease wait-out runs:
            # a write completing before every old lease died could be
            # invisible to a leaseholder still serving reads.
            want_initiate=bool(self.write_queue) and not self._lease_waitout
        )
        if choice == INITIATE_OWN:
            message = self._initiate_write()
            if message is not None:
                return message
            if self.write_queue or self.fair.size:
                # The popped write was absorbed (duplicate); keep going.
                return self._next_ring_message()
        elif choice is not None:
            _origin, prewrite = choice
            if not self.fair.size:  # drained: line 55's reset, not left to a pull
                self.fair.reset_counters()
            tag, op = prewrite.tag, prewrite.op
            self.queued_tags.discard(tag)
            if tag.ts <= self.watermark.get(tag.server_id, 0):
                # Committed while queued (possible around reconfigs).
                self.stats_duplicates_dropped += 1
                return self._next_ring_message()
            endorsed = self.op_index.get(op)
            if self.completed_ops.get(op.client, -1) >= op.seq:
                # A duplicate initiation whose operation committed under
                # another tag while this copy sat queued; forwarding it
                # would re-enter it into our pending set as a zombie.
                if endorsed == tag:
                    del self.op_index[op]
                self.stats_superseded_dropped += 1
                return self._next_ring_message()
            if endorsed is not None and endorsed != tag:
                # While this copy sat queued, a lower-tag copy of the
                # same operation was endorsed; forwarding both would let
                # two circles race to commit one write.
                self.stats_superseded_dropped += 1
                return self._next_ring_message()
            stored = prewrite.value
            if not self._passthrough:
                stored = self.values.take_stored(prewrite)
            if stored is None:
                self.stats_duplicates_dropped += 1
                return self._next_ring_message()
            # Line 71: entering pending at *forward* time keeps reads
            # immediate for as long as possible; by the time any commit
            # for this tag can exist, we have forwarded the pre-write.
            self.pending[tag] = PendingEntry(tag, stored, op)
            self.op_index[op] = tag
            self.stats_forwards += 1
            self._dirty = True
            commits = self._pull_commit_tags(False) if self.commit_queue else ()
            return PreWrite(tag, prewrite.value, op, commits, self.installed_epoch)

        if self.commit_queue:
            tags = self._pull_commit_tags(carrier_is_commit=True)
            return Commit(tags, self.installed_epoch)
        if self.fence_queue:
            # Behind commit traffic, never ahead of it: a fence must not
            # delay the commits whose arrival answers threshold-waiting
            # reads, and the commit queue fully drains into one carrier.
            return self.fence_queue.popleft()
        return None

    def drain_replies(self) -> list[Reply]:
        """Replies produced since the last drain, handed back after the
        state behind them is persisted.  Every entry point ends here."""
        self._maybe_persist()
        replies, self._replies = self._replies, []
        return replies

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _on_client_write(self, client: int, message: ClientWrite) -> None:
        op = message.op
        # Duplicate of a committed write (retry after a lost ack):
        # carry the committed tag so the completion stays tag-covered.
        if self.completed_ops.get(op.client, -1) >= op.seq:
            self._reply(client, WriteAck(op, self._completed_tag(op)))
            return
        # Duplicate of an in-flight write: join its ack waiters.
        tag = self.op_index.get(op)
        if tag is not None:
            self.ack_waiters.setdefault(tag, []).append((client, op))
            return
        if self.alone and not self.paused and not self._lease_waitout:
            self._commit_locally(op, message.value, client)
            return
        self.write_queue.append((op, message.value, client))

    def _on_client_read(self, client: int, message: ClientRead) -> None:
        if self.paused:
            # During reconfiguration the pending set is in flux; defer.
            self.deferred_reads.append((client, message))
            return
        # Bound once by the view policy: the local read below, or the
        # leased read path (lease check, fence fallback) in front of it.
        self._serve_read(client, message)

    def _serve_read_locally(self, client: int, message: ClientRead) -> None:
        if not self.pending:
            # Lines 77-78: reads are local and immediate when there is no
            # write in progress.
            self.stats_reads_served += 1
            self.values.answer_read(client, message.op)
            return
        # Lines 80-82: wait until the highest currently-pending write has
        # committed, then answer with the (current) committed value.
        threshold = self.pending.maxlex()
        self.stats_reads_waited += 1
        self.read_waiters.append((threshold, client, message.op))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _initiate_write(self) -> Optional[PreWrite]:
        """Pseudocode lines 21–28."""
        if not self.write_queue:
            return None
        op, value, client = self.write_queue.popleft()
        # A queued duplicate may have completed meanwhile.
        if self.completed_ops.get(op.client, -1) >= op.seq:
            self._reply(client, WriteAck(op, self._completed_tag(op)))
            return None
        if op in self.op_index:
            self.ack_waiters.setdefault(self.op_index[op], []).append((client, op))
            return None

        new_tag = Tag(self._next_ts(), self.server_id)
        # Note our own mint (always a new high): if this entry is later
        # zombie-dropped (a duplicate initiation losing to a lower tag),
        # _next_ts must still never re-issue the timestamp — a coded
        # ring's share stashes are keyed by tag, and a re-minted tag
        # would commit one tag over two different ops' share sets.
        self.ts_seen = new_tag.ts
        self._dirty = True
        stored = wire = value
        if not self._passthrough:
            stored, wire = self.values.stage_write(new_tag, op, value)
        self.pending[new_tag] = PendingEntry(new_tag, stored, op)
        self.op_index[op] = new_tag
        self.ack_waiters[new_tag] = [(client, op)]  # a fresh tag: nobody waits yet
        self.fair.note_initiated()
        self.stats_writes_initiated += 1
        commits = self._pull_commit_tags(False) if self.commit_queue else ()
        return PreWrite(new_tag, wire, op, commits, self.installed_epoch)

    def _commit_locally(self, op: OpId, value: bytes, client: int) -> None:
        """Single-survivor fast path: the write is trivially everywhere."""
        new_tag = Tag(self._next_ts(), self.server_id)
        self._note_tag(new_tag)
        # A fresh mint is above every committed timestamp, ours included.
        self.watermark[self.server_id] = new_tag.ts
        self._install(new_tag, self.values.localize(new_tag, value))
        self._record_completed(op, new_tag)
        self.stats_writes_initiated += 1
        self._reply(client, WriteAck(op, new_tag))
        self._wake_readers()

    def _on_pre_write(self, message: PreWrite) -> None:
        tag, op = message.tag, message.op
        ts, origin = tag
        if ts > self.ts_seen:
            self.ts_seen = ts
            self._dirty = True
        # Completion (and, past our own circle, staleness): once each.
        done = self.completed_ops.get(op.client, -1) >= op.seq
        if origin == self.server_id:
            # Lines 32-38: our own pre-write completed the circle; every
            # server now stores the value, so install it and start the
            # commit phase.  The client is acked when the commit returns.
            if tag not in self.pending:
                self.stats_duplicates_dropped += 1
                return
            if done:
                # The operation committed under another tag while our
                # circle was in flight (a duplicate initiation racing
                # us).  Committing this copy too would give one write
                # two write-points; drop it and answer its waiters —
                # the real commit already made the write durable.
                self._drop_zombie(tag)
                self._retarget_read_waiters()
                return
            if self.op_index.get(op) != tag:
                # Our endorsement moved to a lower-tag copy of the same
                # operation while this circle was out.  Only the
                # endorsed copy may commit; this one stays pending as a
                # zombie (the winner's commit answers its waiters).
                self.stats_superseded_dropped += 1
                return
            # The commit point at the origin: the register, the
            # completion and the pending set all move here.
            entry = self.pending.pop(tag)
            self._dirty = True
            if tag > self.tag:
                self.value, self.frag_tag, self.tag = entry.value, None, tag
            if not self._passthrough:
                self.values.own_circle_closed(tag)
            # Not ``done``, so this advances the client's completion.
            self.completed_ops[op.client] = op.seq
            self.completed_tags[op.client] = tag
            del self.op_index[op]
            self.commit_queue.append(tag)
            if self.read_waiters:
                self._wake_readers()
            return
        stale = ts <= self.watermark.get(origin, 0)
        if origin in self.ring.dead and self.ring.adopter(origin) == self.server_id:
            # The origin died and we are its adopter: act as the origin.
            # The pre-write reaching us means every surviving server on
            # the path stored the value; the commit distributes the
            # decision (and dies by staleness after one circle).
            if stale:
                self.stats_duplicates_dropped += 1
                return
            if done:
                # The operation committed under another tag; committing
                # this copy too would re-install a superseded value.
                self._drop_zombie(tag)
                self._retarget_read_waiters()
                return
            lower = self.op_index.get(op)
            if lower is not None and lower < tag:
                # A lower-tag initiation of the same operation is still
                # in flight; the lowest tag is the one copy allowed to
                # commit (see _on_pre_write), and its commit will clean
                # this orphan up as a zombie.
                self.stats_superseded_dropped += 1
                return
            # What we store is in the pending entry (forwarded) or still
            # with the backend (not yet).  Neither: the tag advances
            # without bytes and the lag is repaired on the next read.
            entry = self.pending.pop(tag, None)
            stored = self.values.take_stored(message) if entry is None else entry.value
            self._install(tag, stored)
            self._record_completed(op, tag)
            self.op_index.pop(op, None)
            self.commit_queue.append(tag)
            self._wake_readers()
            return
        # Lines 30-31: enqueue for (fair) forwarding.
        if stale or tag in self.pending or tag in self.queued_tags:
            self.stats_duplicates_dropped += 1
            return
        if done:
            # Duplicate initiation of an operation that already committed
            # under another tag (an aggressive retry raced the stalled
            # original).  Dropping it here breaks the duplicate's circle,
            # so it can never commit; ts_seen was noted above, so our own
            # future initiations still outbid it.
            self.stats_superseded_dropped += 1
            return
        other = self.op_index.get(op)
        if other is not None and other < tag:
            # Concurrent duplicate initiations of one operation: at most
            # one may ever commit, or two servers could end up with
            # different write-points for the same write (the value of
            # the loser is zombie-dropped at whoever learns of the
            # winner first, after which a stray commit of the loser can
            # no longer be installed ring-wide).  The arbitration is
            # deterministic — the lowest tag wins — so every copy of
            # the higher circle breaks at the first server holding a
            # lower one, while the lowest circle passes everywhere.
            self.stats_superseded_dropped += 1
            return
        if not (self._passthrough or self.values.may_forward(message)):
            return  # parked; the backend re-enters it here when ready
        self.queued_tags.add(tag)
        self.op_index[op] = tag
        # Queued as received: the forward builds the one outgoing copy.
        self.fair.enqueue(origin, message)

    def _process_commits(self, tags: tuple[Tag, ...]) -> None:
        """Pseudocode lines 41–52, on tag-only commits, in one pass.

        Termination: a tag is re-enqueued for the successor unless this
        server had already processed it (staleness).  A commit therefore
        travels one full circle — every server processes it exactly
        once — plus one extra hop back to the first processor.
        """
        for tag in tags:
            ts, origin = tag
            if ts > self.ts_seen:
                self.ts_seen = ts
                self._dirty = True
            if ts <= self.watermark.get(origin, 0):
                self.stats_duplicates_dropped += 1
                continue
            self.watermark[origin] = ts
            self._dirty = True  # commit point: watermark and pending change
            self.stats_commits_processed += 1

            # (An unknown tag — we never saw this write's value — can
            # only come from flows reconfiguration already covers.)
            entry = self.pending.pop(tag, None)
            if not self._passthrough:
                # Whatever the backend still holds for a tag that just
                # committed is residue of a circle that completed
                # without our forward (reconfiguration reroute).
                self.values.forget(tag)
            if entry is not None:
                op = entry.op
                if tag > self.tag:
                    self.value, self.frag_tag, self.tag = entry.value, None, tag
                if op.seq > self.completed_ops.get(op.client, -1):
                    self.completed_ops[op.client] = op.seq
                    self.completed_tags[op.client] = tag
                else:
                    self._record_completed(op, tag)  # a tie may backfill the tag
                self.op_index.pop(op, None)
                if op in self.pending.tags_by_op:
                    # Zombies of a duplicate initiation of ``op``: their
                    # circles may never close.  Drop them, answer their
                    # waiters with this tag, and clamp read thresholds
                    # pointing at them so no read waits for a commit
                    # that will never arrive.
                    for zombie in self.pending.tags_of(op):
                        self.queued_tags.discard(zombie)
                        self._drop_zombie(zombie, tag)
                    self._retarget_read_waiters()

            # Ack every client waiting on this tag at *this* server (the
            # origin's own client, plus any retries that attached here).
            if tag in self.ack_waiters:
                for client, op in self.ack_waiters.pop(tag):
                    self._replies.append(Reply(client, WriteAck(op, tag)))
            if self.read_waiters:
                self._wake_readers()
            if not self.alone:
                self.commit_queue.append(tag)

    def _on_state_sync(self, message: StateSync) -> None:
        """Predecessor's committed state after a splice (line 88)."""
        self._note_tag(message.tag)
        if message.tag > self.tag:
            self._install(
                message.tag, self.values.adopt_register(message.tag, message.value)
            )
            self._wake_readers()

    # ------------------------------------------------------------------
    # Reconfiguration: the state merge.  *When* one starts, which token
    # is admitted and what its commit installs are the view policy's
    # (repro.core.views); building, merging, applying and resuming are
    # the same under both policies and live here.
    # ------------------------------------------------------------------

    def _reroute(self, ring: RingView) -> None:
        """Policy primitive: route by ``ring`` *tentatively* (a splice, a
        circulating proposal); ``installed_view`` stays the anchor."""
        self.ring = ring
        self._dirty = True
        self._follow_ring()

    def _install_view(self, ring: RingView, commit: ReconfigCommit) -> None:
        """Policy primitive: ``ring`` is the committed view from here on
        (the epoch transition point)."""
        self.ring = self.installed_view = ring
        self._follow_ring()
        self.installed_epoch = ring.epoch
        self.view_log.append((ring.epoch, commit.coordinator, commit.nonce))
        self._dirty = True

    def _next_nonce(self) -> int:
        """Policy primitive: burn one reconfiguration nonce.  Persisted,
        so a restarted coordinator can never reuse one (others would
        drop its fresh token as an orphaned duplicate) and an abandoned
        attempt's returning token is unrecognisable."""
        self._reconfig_counter += 1
        self._dirty = True
        return self._reconfig_counter

    def _new_token(self, epoch: int, dead, revived) -> ReconfigToken:
        """Coordinator side: pause and build the state-merge token for
        the proposed membership from this server's state."""
        self.paused = True
        return ReconfigToken(
            nonce=self._next_nonce(),
            epoch=epoch,
            coordinator=self.server_id,
            dead=tuple(sorted(dead)),
            tag=self.tag,
            value=self.values.token_form(self.fresh_value),
            pending=self._pending_snapshot(),
            completed_ops=tuple(sorted(self.completed_ops.items())),
            revived=tuple(sorted(revived)),
            completed_tags=tuple(sorted(self.completed_tags.items())),
        )

    def _pending_snapshot(self) -> tuple[PendingEntry, ...]:
        """Every uncommitted write this server knows about: the pending
        set plus pre-writes still sitting in the forward queue (which is
        drained — the merge supersedes it).

        The entries are in the backend's *token form*.  A queued
        pre-write the backend holds no bytes for contributes nothing
        (the origin's own token entry covers the write).
        """
        entries = dict(self.pending)
        for _origin, prewrite in self.fair.drain():
            stored = self.values.peek_stored(prewrite)
            if stored is not None:
                entries.setdefault(
                    prewrite.tag, PendingEntry(prewrite.tag, stored, prewrite.op)
                )
        self.queued_tags.clear()
        return tuple(
            PendingEntry(
                tag, self.values.token_form(entries[tag].value), entries[tag].op
            )
            for tag in sorted(entries)
        )

    def _merge_into_token(self, token: ReconfigToken) -> ReconfigToken:
        self._note_tag(token.tag)
        for entry in token.pending:
            self._note_tag(entry.tag)
        merged_tag, merged_value = self.values.merge_register(token.tag, token.value)
        entries = {entry.tag: entry for entry in token.pending}
        for entry in self._pending_snapshot():
            theirs = entries.get(entry.tag)
            entries[entry.tag] = (
                entry if theirs is None else self.values.merge_entry(theirs, entry)
            )
        completed: dict[int, int] = dict(token.completed_ops)
        completed_tags: dict[int, Tag] = dict(token.completed_tags)
        for client, seq in self.completed_ops.items():
            self._advance_completed(
                completed, completed_tags, client, seq,
                self.completed_tags.get(client),
            )
        epoch, dead = self.views.merged_membership(token)
        return ReconfigToken(
            nonce=token.nonce,
            epoch=epoch,
            coordinator=token.coordinator,
            dead=tuple(sorted(dead)),
            tag=merged_tag,
            value=merged_value,
            pending=tuple(entries[tag] for tag in sorted(entries)),
            completed_ops=tuple(sorted(completed.items())),
            revived=token.revived,
            completed_tags=tuple(sorted(completed_tags.items())),
        )

    def _on_reconfig_token(self, token: ReconfigToken) -> None:
        if not self.views.admit_token(token):
            return
        if token.coordinator == self.server_id:
            # Token is back with every survivor's state merged in.  A
            # commit has the token's fields by construction.
            commit = ReconfigCommit(**vars(self._merge_into_token(token)))
            self.control_queue.append(commit)
            self.views.install(commit)
            self._apply_merged_state(commit)
            # Re-commit every surviving pending write so no read blocks
            # forever and every origin can ack its client.  The commits
            # flow behind the ReconfigCommit (FIFO), so every server has
            # the merged values before a commit reaches it.  Iterating
            # the *applied* pending set (not the raw token) matters:
            # apply-time filtering has already dropped stale entries and
            # zombies of operations the merged completed_ops says are
            # done, which must not be re-committed (resurrection).
            # While an old-epoch lease wait-out runs, the policy holds
            # the re-commits back until it ends.
            tags = sorted(self.pending)
            if self._lease_waitout:
                self.views.stash_recommits(tags)
            else:
                self.commit_queue.extend(tags)
            self._resume()
        else:
            key = (token.coordinator, token.nonce)
            if key in self._seen_reconfigs:
                # A token orphaned by its coordinator's crash; drop it
                # (the coordinator's own crash triggers a fresh merge).
                return
            self._seen_reconfigs.add(key)
            self.paused = True
            self.control_queue.append(self._merge_into_token(token))

    def _on_reconfig_commit(self, commit: ReconfigCommit) -> None:
        key = (commit.coordinator, -commit.nonce)
        if not self.views.admit_commit(commit) or key in self._seen_reconfigs:
            return  # our own (applied when created), refused, or a duplicate
        self._seen_reconfigs.add(key)
        settled = self.views.install(commit)
        self._apply_merged_state(commit)
        self.control_queue.append(commit)
        if settled:
            self._resume()

    def _apply_merged_state(self, commit: ReconfigCommit) -> None:
        self._note_tag(commit.tag)
        if commit.tag > self.tag:
            self._install(
                commit.tag, self.values.adopt_register(commit.tag, commit.value)
            )
        merged_tags = dict(commit.completed_tags)
        for client, seq in commit.completed_ops:
            self._advance_completed(
                self.completed_ops, self.completed_tags, client, seq,
                merged_tags.get(client),
            )
        # The merged pending set replaces local pending and every queued
        # pre-write (their tags are all in the merged set by construction).
        self.fair.drain()
        self.queued_tags.clear()
        self.fair.reset_counters()
        merged = PendingSet()
        endorsed: dict[OpId, Tag] = {}
        for entry in commit.pending:  # ascending tag order by construction
            self._note_tag(entry.tag)
            if entry.tag.ts <= self.watermark.get(entry.tag.server_id, 0):
                continue  # committed here already
            if self._op_completed(entry.op):
                # A zombie of an operation the merged completed_ops says
                # is done: re-committing it would resurrect a superseded
                # value.  Its committed state is covered by the merged
                # (tag, value) — some survivor processed the real commit,
                # or completed_ops could not name the operation.
                self.stats_superseded_dropped += 1
                continue
            winner = endorsed.get(entry.op)
            if winner is not None:
                # Duplicate initiations of one uncommitted operation
                # survived into the merge; keep only the lowest tag (the
                # same arbitration the live forward path applies), or
                # the post-merge re-commit would commit one write twice
                # under different tags.  Its waiters follow the winner.
                self.stats_superseded_dropped += 1
                waiters = self.ack_waiters.pop(entry.tag, None)
                if waiters:
                    self.ack_waiters.setdefault(winner, []).extend(waiters)
                continue
            adopted = self.values.adopt_entry(entry)
            if adopted is None:
                # Unrecoverable; every member drops it alike (the
                # client's retry re-initiates the write).
                self.ack_waiters.pop(entry.tag, None)
                continue
            endorsed[entry.op] = entry.tag
            merged[entry.tag] = adopted
        self.pending = merged
        self.op_index = {entry.op: entry.tag for entry in merged.values()}
        self.values.merged()
        self._dirty = True  # reconfig point: the merged state is durable
        # Waiters for operations the merge knows are complete would now
        # wait forever (their tag was filtered); answer them here.
        for tag in sorted(self.ack_waiters):
            remaining = []
            for client, op in self.ack_waiters[tag]:
                if self._op_completed(op):
                    self._reply(client, WriteAck(op, self._completed_tag(op)))
                else:
                    remaining.append((client, op))
            if remaining:
                self.ack_waiters[tag] = remaining
            else:
                del self.ack_waiters[tag]
        self._retarget_read_waiters()
        self._wake_readers()

    def _resume(self) -> None:
        self.paused = False
        if self.rejoining:
            # The reconfiguration commit that carries the merged state is
            # the moment a recovering server is caught up: from here on
            # it serves reads and initiates writes like any ring member.
            self.rejoining = False
            self._rejoin_sponsor = None
        self.views.resumed()  # may pause us again
        deferred, self.deferred_reads = self.deferred_reads, deque()
        for client, message in deferred:
            self._on_client_read(client, message)
        rejoins, self._deferred_rejoins = self._deferred_rejoins, deque()
        for request in rejoins:
            # May pause us again (a new reconfiguration); later requests
            # in the batch then re-defer themselves.
            self._on_rejoin_request(request)

    def _on_rejoin_request(self, message: RejoinRequest) -> None:
        """A restarted (or demoted) server announced itself; how it is
        folded back in is the view policy's."""
        rid = message.server_id
        if rid != self.server_id and rid in set(self.ring.members):
            self.views.on_rejoin_request(message)

    def _resolve_alone(self) -> None:
        """Down to a single survivor: every known pending write commits
        locally, in tag order, and every waiter is answered."""
        self.paused = False
        for _origin, prewrite in self.fair.drain():
            self.pending.setdefault(
                prewrite.tag, PendingEntry(prewrite.tag, prewrite.value, prewrite.op)
            )
        self.queued_tags.clear()
        for tag in sorted(self.pending):
            entry = self.pending.pop(tag)
            self._note_tag(tag)
            if self._op_completed(entry.op):
                # Zombie of an already-committed operation: answer its
                # waiters, but do not install a superseded value.
                self.stats_superseded_dropped += 1
                for client, op in self.ack_waiters.pop(tag, ()):
                    self._reply(client, WriteAck(op, self._completed_tag(op)))
                continue
            self.watermark[tag.server_id] = max(
                self.watermark.get(tag.server_id, 0), tag.ts
            )
            self._dirty = True
            self._install(tag, entry.value)
            self._record_completed(entry.op, tag)
            self.op_index.pop(entry.op, None)
            for client, op in self.ack_waiters.pop(tag, ()):
                self._reply(client, WriteAck(op, tag))
        # Acks for tags we initiated whose commit was still circulating.
        for tag in sorted(self.ack_waiters):
            for client, op in self.ack_waiters.pop(tag, ()):
                self._reply(client, WriteAck(op, tag))
        self.commit_queue.clear()
        self.control_queue.clear()
        self._retarget_read_waiters()
        self._wake_readers()
        self._resume()
        # Absorb queued client writes through the fast path.
        queued, self.write_queue = self.write_queue, deque()
        for op, value, client in queued:
            if self._op_completed(op):
                self._reply(client, WriteAck(op, self._completed_tag(op)))
            else:
                self._commit_locally(op, value, client)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pull_commit_tags(self, carrier_is_commit: bool) -> tuple:
        """Drain queued commit tags, up to the piggyback budget, in one
        slice (a pre-write or state sync carries them only when commits
        piggyback, Section 4.2)."""
        queue = self.commit_queue
        if not queue or not (carrier_is_commit or self.config.piggyback_commits):
            return ()
        tags = tuple(queue)
        queue.clear()
        queue.extend(tags[_MAX_PIGGYBACKED_COMMITS:])  # over budget: the next carrier
        return tags[:_MAX_PIGGYBACKED_COMMITS]

    def _attach_commits(self, message: RingMessage) -> RingMessage:
        """A control-queue message as it leaves: a ``StateSync`` takes
        queued commit tags and the installed epoch; reconfiguration
        messages carry their own epoch and leave as they are."""
        if not isinstance(message, StateSync):
            return message
        tags = self._pull_commit_tags(carrier_is_commit=False)
        commits = tags or message.commits
        return StateSync(message.tag, message.value, commits, self.installed_epoch)

    def _install(self, tag: Tag, stored: Optional[bytes]) -> None:
        """Monotone register update (lines 33-35 / 43-45).

        ``stored`` is what this server stores for the value committed
        under ``tag`` — or ``None`` when the tag must advance without it
        (a merge decided above us); the bytes held then keep their old
        tag in :attr:`frag_tag` until :meth:`_repair_stored`.  The
        replicated backend never passes ``None``.
        """
        if tag > self.tag:
            if stored is not None:
                self.value = stored
                self.frag_tag = None
            elif self.frag_tag is None:
                self.frag_tag = self.tag
            self.tag = tag
            self._dirty = True

    def _repair_stored(self, stored: bytes) -> None:
        """The backend re-derived the bytes that belong to :attr:`tag`."""
        self.value = stored
        self.frag_tag = None
        self._dirty = True

    @property
    def fresh_value(self) -> Optional[bytes]:
        """:attr:`value` while it belongs to :attr:`tag`, else ``None``."""
        return self.value if self.frag_tag is None else None

    @staticmethod
    def _advance_completed(
        seqs: dict, tags: dict, client: int, seq: int, tag: Optional[Tag]
    ) -> bool:
        """Advance one client's (completed-seq, completed-tag) watermark
        pair; returns whether anything changed.

        The tag slot always describes the *max* seq: advancing past it
        replaces the tag — or pops it when the new op's tag is unknown,
        so the previous op's tag can never masquerade as the new one's —
        and a seq tie only backfills an empty slot.  Every path that
        learns of completions (local commits, the reconfiguration token
        merge, commit application) goes through here, so the invariant
        lives in one place.
        """
        recorded = seqs.get(client, -1)
        if seq > recorded:
            seqs[client] = seq
            if tag is not None:
                tags[client] = tag
            else:
                tags.pop(client, None)
            return True
        if seq == recorded and tag is not None and client not in tags:
            tags[client] = tag
            return True
        return False

    def _record_completed(self, op: OpId, tag: Optional[Tag] = None) -> None:
        if self._advance_completed(
            self.completed_ops, self.completed_tags, op.client, op.seq, tag
        ):
            self._dirty = True

    def _op_completed(self, op: OpId) -> bool:
        """Whether ``op`` is known to have committed (under any tag).
        Clients run one operation at a time with monotone sequence
        numbers, so the per-client watermark answers exactly this."""
        return self.completed_ops.get(op.client, -1) >= op.seq

    def _completed_tag(self, op: OpId) -> Optional[Tag]:
        """The tag ``op`` committed under, if this server knows it.

        Only the client's *latest* completed operation is remembered —
        a client retries only its one in-flight op, so that is the only
        seq a dedup ack can be for.  ``None`` for older seqs (the client
        has long since moved on and discards such acks) or when the
        completion was learned without its tag."""
        if self.completed_ops.get(op.client, -1) == op.seq:
            return self.completed_tags.get(op.client)
        return None

    def _note_tag(self, tag: Tag) -> None:
        """Track the highest timestamp ever seen (duplicates included)."""
        if tag.ts > self.ts_seen:
            self.ts_seen = tag.ts
            self._dirty = True

    def _next_ts(self) -> int:
        """Timestamp for a fresh initiation: strictly above everything
        installed, pending, or ever seen — including tags of duplicates
        this server dropped, which may still commit elsewhere.  Pending
        needs no look: every tag passes :meth:`_note_tag` before it can
        enter the pending set, so ``ts_seen`` already dominates it."""
        return max(self.tag.ts, self.ts_seen) + 1

    def _drop_zombie(self, tag: Tag, committed: Optional[Tag] = None) -> None:
        """``tag``'s operation committed under another tag: this copy
        must never commit.  Drop whatever is held for it and answer its
        ack waiters with the tag the write really committed under
        (``committed`` when the caller has it at hand)."""
        entry = self.pending.pop(tag, None)
        if entry is not None and self.op_index.get(entry.op) == tag:
            del self.op_index[entry.op]
        self.values.forget(tag)
        self.stats_superseded_dropped += 1
        for client, op in self.ack_waiters.pop(tag, ()):
            under = self._completed_tag(op) if committed is None else committed
            self._reply(client, WriteAck(op, under))

    def _retarget_read_waiters(self) -> None:
        """Clamp read thresholds to the highest still-outstanding tag.

        A waiter's threshold can point at a pending entry that was
        dropped as a superseded duplicate; left alone it would wait for
        a commit that never comes.  Clamping to ``max(pending, tag)`` is
        safe: every write completed before the read arrived has either
        been installed here (covered by ``self.tag``) or is still
        pending here (covered by the remaining pending set).
        """
        if not self.read_waiters:
            return
        ceiling = max(self.pending.maxlex(), self.tag)
        if any(threshold > ceiling for threshold, _client, _op in self.read_waiters):
            self.read_waiters = [
                (min(threshold, ceiling), client, op)
                for threshold, client, op in self.read_waiters
            ]
            self._wake_readers()

    def _wake_readers(self) -> None:
        """Answer read waiters whose threshold is now installed.

        The installed tag only ever reflects *committed* values (installs
        happen at pre-write return, commit processing, state sync and
        merged-state application), so ``self.tag >= threshold`` is the
        paper's line-81 condition "received a write message with tag >=
        threshold".
        """
        if not self.read_waiters:
            return
        tag, waiters = self.tag, self.read_waiters
        self.read_waiters = [waiter for waiter in waiters if tag < waiter[0]]
        for threshold, client, op in waiters:
            if tag >= threshold:
                # Answering may re-enter waiter lists (a coded read
                # defers itself while it reconstructs) — hence the list
                # is replaced before anyone is answered.
                self.values.answer_read(client, op)

    def _reply(self, client: int, message) -> None:
        self._replies.append(Reply(client, message))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServerProtocol id={self.server_id} tag={self.tag} "
            f"pending={len(self.pending)} paused={self.paused}>"
        )
