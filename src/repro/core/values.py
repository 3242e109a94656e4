"""The value backends: who owns the bytes a server stores for a write.

:class:`~repro.core.server.ServerProtocol` orders tags, commits them and
manages membership without ever looking inside a value.  Everything that
*does* depend on how a value is laid out across the ring sits behind the
backend chosen once, at construction, from ``config.value_coding``:

* :class:`ReplicatedValues` — the paper: every server stores and
  forwards the whole value, so every hook below is the identity;
* :class:`CodedValues` — the CASGC/RADON-style layer (docs/coding.md):
  the origin stripes each value into ``coding_n`` systematic GF(256)
  fragments (:mod:`repro.core.coding`), scatters one
  :class:`FragmentStore` per ring member and circulates a value-less
  pre-write; a receiver parks that pre-write until its share arrived,
  reads reconstruct from any ``k`` shares, and the reconfiguration token
  carries fragment *sets* that the merge unions and repairs.

What the core asks, in its own vocabulary (there is no base class and
no third backend).  ``passthrough`` says the write-path hooks are
identities; the core then skips them on its per-message path, and
:class:`ReplicatedValues` leaves out the three it is never asked —
``stage_write``, ``own_circle_closed`` and ``may_forward``:

==============================  =========================================
``localize(tag, value)``        bytes to store for a value known in full
                                (initial value, sole-survivor commit)
``stage_write(tag, op, value)`` → ``(stored, wire)`` for an initiation
``own_circle_closed(tag)``      our pre-write is back: it is installed
``may_forward(prewrite)``       may this pre-write be forwarded yet?
``take_stored(prewrite)``       bytes to store at forward time (``None``:
                                nothing held — already covered)
``peek_stored(prewrite)``       the same, without consuming them
``forget(tag)``                 the tag committed, was superseded, or is
                                merge residue: drop what is held for it
``answer_read(client, op)``     materialise the committed value
``abort_reads()``               the view moved under in-flight reads
``token_form(stored)``          stored bytes → reconfiguration-token form
``merge_register(tag, blob)``   one token hop's committed-register merge
``merge_entry(theirs, ours)``   two token-form entries of one tag
``adopt_register(tag, blob)``   merged register → bytes to store
``adopt_entry(entry)``          merged entry → entry to keep, or ``None``
``merged()``                    the merged pending set replaced ours
``on_message(message)``         the three fragment message types
==============================  =========================================

The snapshot-covered register (``tag``, ``value``, ``frag_tag``) stays on
the protocol object; a backend changes it only through the protocol's own
``_install`` / ``_repair_stored``
(``test_protocol_holders_store_no_covered_state`` in
``tests/unit/test_runtime_wiring_meta.py`` rejects a direct store from
this module).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core import coding
from repro.core.messages import (
    ClientRead,
    FragmentFetch,
    FragmentReply,
    FragmentStore,
    OpId,
    PendingEntry,
    PreWrite,
    ReadAck,
)
from repro.core.tags import Tag
from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import ServerProtocol

#: The ring messages only a value backend interprets.
FRAGMENT_MESSAGES = (FragmentStore, FragmentFetch, FragmentReply)


class ReplicatedValues:
    """Store and forward the whole value (the paper's server)."""

    #: The pre-write carries the value and nothing is parked or stashed,
    #: so the core skips the write-path hooks (module docstring).
    passthrough = True

    def __init__(self, core: "ServerProtocol"):
        self.core = core

    def localize(self, tag: Tag, value: bytes) -> bytes:
        return value

    def take_stored(self, prewrite: PreWrite) -> Optional[bytes]:
        return prewrite.value

    def peek_stored(self, prewrite: PreWrite) -> Optional[bytes]:
        return prewrite.value

    def forget(self, tag: Tag) -> None:
        pass

    def answer_read(self, client: int, op: OpId) -> None:
        core = self.core
        core._reply(client, ReadAck(op, core.value, core.tag))

    def abort_reads(self) -> None:
        pass

    def token_form(self, stored: Optional[bytes]) -> Optional[bytes]:
        return stored

    def merge_register(self, tag: Tag, value: bytes) -> tuple[Tag, bytes]:
        core = self.core
        return (tag, value) if tag >= core.tag else (core.tag, core.value)

    def merge_entry(self, theirs: PendingEntry, ours: PendingEntry) -> PendingEntry:
        return theirs

    def adopt_register(self, tag: Tag, value: bytes) -> Optional[bytes]:
        return value

    def adopt_entry(self, entry: PendingEntry) -> Optional[PendingEntry]:
        return entry

    def merged(self) -> None:
        pass

    def on_message(self, message) -> None:
        # No fragment traffic exists in a replicated ring; a stray
        # FragmentStore still feeds the seen-timestamp floor.
        if isinstance(message, FragmentStore):
            self.core._note_tag(message.tag)


class CodedValues:
    """One systematic GF(256) fragment per ring member.

    ``core.value`` holds this server's *share* of the committed value;
    ``core.frag_tag`` is ``None`` while that share belongs to
    ``core.tag`` and remembers the older tag while it lags (a merge
    advanced the tag without our share; the next read repairs it).  The
    fragment index is the server's position in the immutable member
    tuple, so every server derives the same indexing without
    coordination.
    """

    passthrough = False

    def __init__(self, core: "ServerProtocol"):
        config = core.config
        if config.coding_n != len(core.ring.members):
            raise ProtocolError(
                f"coding_n={config.coding_n} must equal the ring size "
                f"({len(core.ring.members)} members)"
            )
        self.core = core
        self._k = config.coding_k
        self._n = config.coding_n
        self._index = core.ring.members.index(core.server_id)
        #: Single-entry reconstruction cache: last full value decoded
        #: (or originated) here.  Volatile — never snapshotted.
        self._cache_tag: Optional[Tag] = None
        self._cache_value: Optional[bytes] = None
        #: Full values of writes this server originated, kept until the
        #: pre-write's circle returns (they seed the cache, so the
        #: origin's own reads never pay a reconstruction).
        self._origin_values: dict[Tag, bytes] = {}
        #: Shares received via FragmentStore for pre-writes not yet
        #: forwarded (the pending entry takes the share at forward time).
        self._frag_stash: dict[Tag, bytes] = {}
        #: Pre-writes parked until their share arrives: forwarding
        #: before the share is stored would break the full-circle
        #: durability proof.
        self._parked_prewrites: dict[Tag, PreWrite] = {}
        #: In-flight reconstructions: nonce -> state dict; plus a
        #: tag -> nonce map so concurrent reads of one tag coalesce
        #: into a single fetch round.
        self._recon: dict[int, dict] = {}
        self._recon_by_tag: dict[Tag, int] = {}
        self._recon_nonce = 0

    def _own_share(self, full: bytes) -> bytes:
        return coding.encode(full, self._k, self._n)[self._index]

    # -- write path ------------------------------------------------------

    def localize(self, tag: Tag, value: bytes) -> bytes:
        """Our share of a value known in full; the value seeds the cache
        (a sole survivor's reads never need the absent peers)."""
        self._cache_tag, self._cache_value = tag, value
        return self._own_share(value)

    def stage_write(self, tag: Tag, op: OpId, value: bytes) -> tuple[bytes, bytes]:
        """Stripe the value: each live member gets its share directly;
        the circulating pre-write carries no value and serves purely as
        the durability control circle.  (A dead member's share is simply
        not stored — the same degraded redundancy its absence from the
        circle implies.)"""
        core = self.core
        fragments = coding.encode(value, self._k, self._n)
        for index, peer in enumerate(core.ring.members):
            if peer != core.server_id and core.ring.is_alive(peer):
                core.outbox.append(
                    (peer, FragmentStore(
                        tag, op, index, fragments[index], core.installed_epoch
                    ))
                )
        self._origin_values[tag] = value
        return fragments[self._index], b""

    def own_circle_closed(self, tag: Tag) -> None:
        full = self._origin_values.pop(tag, None)
        if full is not None and tag >= self.core.tag:
            self._cache_tag, self._cache_value = tag, full

    def may_forward(self, prewrite: PreWrite) -> bool:
        """Forwarding before our share arrived would let the circle
        complete without this server storing it, voiding the durability
        proof.  Park the pre-write instead; the FragmentStore's arrival
        re-enters it into the core."""
        tag = prewrite.tag
        if tag in self._frag_stash:
            return True
        if tag in self._parked_prewrites:
            self.core.stats_duplicates_dropped += 1
        else:
            self._parked_prewrites[tag] = prewrite
        return False

    def take_stored(self, prewrite: PreWrite) -> Optional[bytes]:
        """The stashed share (its arrival is what unparked the
        pre-write, so it is normally present — a merge racing the
        forward clears both queue and stash, so a missing share means
        the entry is already covered)."""
        return self._frag_stash.pop(prewrite.tag, None)

    def peek_stored(self, prewrite: PreWrite) -> Optional[bytes]:
        return self._frag_stash.get(prewrite.tag)

    def forget(self, tag: Tag) -> None:
        self._frag_stash.pop(tag, None)
        self._parked_prewrites.pop(tag, None)
        self._origin_values.pop(tag, None)

    # -- reads -----------------------------------------------------------

    def answer_read(self, client: int, op: OpId) -> None:
        """Materialise the full value for the *current* committed tag:
        from the single-entry cache (populated by origination,
        reconstruction and merge repair), by a trivial local decode when
        ``k == 1``, or by fetching ``k`` shares from peers — in which
        case the reply is deferred until the reconstruction completes."""
        core = self.core
        if self._cache_tag == core.tag:
            core.stats_coding_cache_reads += 1
            core._reply(client, ReadAck(op, self._cache_value, core.tag))
            return
        if core.frag_tag is None and self._k == 1:
            full = coding.decode({self._index: core.value}, self._k, self._n)
            self._cache_tag, self._cache_value = core.tag, full
            core.stats_coding_reconstructions += 1
            core._reply(client, ReadAck(op, full, core.tag))
            return
        if core.paused:
            # Mid-reconfiguration (reachable via _wake_readers during a
            # merge apply): fetches stamped now would die at the epoch
            # seam; re-enter after resume.
            core.deferred_reads.append((client, ClientRead(op)))
            return
        self._start_reconstruction(client, op)

    def _start_reconstruction(self, client: int, op: OpId) -> None:
        """Fetch peer shares to rebuild the value for ``core.tag``."""
        core = self.core
        tag = core.tag
        nonce = self._recon_by_tag.get(tag)
        if nonce is not None:
            self._recon[nonce]["waiters"].append((client, op))
            return
        peers = [s for s in core.ring.alive() if s != core.server_id]
        if not peers:
            # Below the liveness bound (k > 1 survivors needed): the
            # read cannot be served until the view grows back.
            core.deferred_reads.append((client, ClientRead(op)))
            return
        fragments: dict[int, bytes] = {}
        if core.frag_tag is None:
            fragments[self._index] = core.value
        self._recon_nonce += 1
        nonce = self._recon_nonce
        self._recon[nonce] = {
            "tag": tag,
            "fragments": fragments,
            "waiters": [(client, op)],
            "outstanding": len(peers),
            "misses": 0,
        }
        self._recon_by_tag[tag] = nonce
        for peer in peers:
            core.outbox.append(
                (peer, FragmentFetch(
                    nonce, tag, core.server_id, core.installed_epoch
                ))
            )

    def abort_reads(self) -> None:
        """In-flight fetches carry a superseded epoch and can never be
        answered (view install, demotion to rejoiner): route their reads
        back through the deferred queue, so after resume they re-evaluate
        against the merged state."""
        recons, self._recon = self._recon, {}
        self._recon_by_tag = {}
        for nonce in sorted(recons):
            for client, op in recons[nonce]["waiters"]:
                self.core.deferred_reads.append((client, ClientRead(op)))

    def _complete_reconstruction(self, nonce: int) -> None:
        core = self.core
        recon = self._recon.pop(nonce)
        tag = recon["tag"]
        self._recon_by_tag.pop(tag, None)
        full = coding.decode(recon["fragments"], self._k, self._n)
        core.stats_coding_reconstructions += 1
        if tag >= core.tag and self._cache_tag != tag:
            self._cache_tag, self._cache_value = tag, full
        if tag == core.tag and core.frag_tag is not None:
            # Repair-on-read: our own share lagged the committed tag (a
            # merge advanced the register without it); we now hold the
            # full value, so re-derive and install our share.
            core._repair_stored(self._own_share(full))
            core.stats_coding_repairs += 1
        for client, op in recon["waiters"]:
            if core.tag == tag:
                core._reply(client, ReadAck(op, full, tag))
            else:
                # The register advanced while we fetched; the read must
                # reflect the newer committed value.
                self.answer_read(client, op)

    def _abort_reconstruction(self, nonce: int) -> None:
        recon = self._recon.pop(nonce)
        self._recon_by_tag.pop(recon["tag"], None)
        for client, op in recon["waiters"]:
            self.answer_read(client, op)

    # -- fragment traffic ------------------------------------------------

    def on_message(self, message) -> None:
        if isinstance(message, FragmentStore):
            self._on_fragment_store(message)
        elif isinstance(message, FragmentFetch):
            self._on_fragment_fetch(message)
        else:
            self._on_fragment_reply(message)

    def _on_fragment_store(self, message: FragmentStore) -> None:
        """Our share of a write, sent directly by the origin.

        Stash it; if the matching (empty-value) pre-write is parked
        waiting for it, the pre-write re-enters the forward path now.
        """
        core = self.core
        tag = message.tag
        core._note_tag(tag)
        if message.index != self._index:
            return
        stale = tag.ts <= core.watermark.get(tag.server_id, 0)
        if stale or core._op_completed(message.op):
            # Committed (or superseded) while the share was in flight;
            # a parked pre-write for it is equally dead.
            self._parked_prewrites.pop(tag, None)
            core.stats_duplicates_dropped += 1
            return
        if tag in core.pending or tag in self._frag_stash:
            core.stats_duplicates_dropped += 1
            return
        self._frag_stash[tag] = message.fragment
        core.stats_coding_fragment_stores += 1
        parked = self._parked_prewrites.pop(tag, None)
        if parked is not None:
            core._on_pre_write(parked)

    def _share_of(self, tag: Tag) -> Optional[bytes]:
        """Whatever share this server holds for ``tag``: its committed
        register, a pending entry racing its commit, or a stashed one."""
        core = self.core
        if tag == core.tag and core.frag_tag is None:
            return core.value
        if tag in core.pending:
            return core.pending[tag].value
        return self._frag_stash.get(tag)

    def _on_fragment_fetch(self, message: FragmentFetch) -> None:
        """A peer is reconstructing ``message.tag``: send our share.

        An index of ``-1`` signals a miss — this server holds no share
        for that tag (its register moved past it, or it never saw the
        write); the requester counts misses to detect a round that
        cannot complete.
        """
        core = self.core
        fragment = self._share_of(message.tag)
        if (
            fragment is None
            and self._cache_tag == message.tag
            and self._cache_value is not None
        ):
            # The full value is cached: re-derive our share (covers a
            # stale own share after a merge repair-on-read).
            fragment = self._own_share(self._cache_value)
        if fragment is None:
            reply = FragmentReply(
                message.nonce, message.tag, -1, b"", core.installed_epoch
            )
        else:
            reply = FragmentReply(
                message.nonce, message.tag, self._index, fragment,
                core.installed_epoch,
            )
        core.outbox.append((message.requester, reply))

    def _on_fragment_reply(self, message: FragmentReply) -> None:
        """A peer's share (or miss) for one of our reconstructions."""
        recon = self._recon.get(message.nonce)
        if recon is None or recon["tag"] != message.tag:
            return
        if message.index >= 0:
            recon["fragments"][message.index] = message.fragment
        else:
            recon["misses"] += 1
        fragments = recon["fragments"]
        if len(fragments) >= self._k:
            self._complete_reconstruction(message.nonce)
            return
        answered = len(fragments) + recon["misses"]
        known = 1 if self._index in fragments else 0
        if answered - known >= recon["outstanding"]:
            # Every peer answered and the round fell short of k.  The
            # tag was committed ring-wide, so peers that missed have
            # moved *past* it — the commit that moved them is on its
            # way here.  Re-route the waiters: they re-check the (by
            # then advanced) tag and fetch again.
            self._abort_reconstruction(message.nonce)

    # -- reconfiguration token -------------------------------------------

    def token_form(self, stored: Optional[bytes]) -> bytes:
        """A packed fragment set ``{our index: our share}`` (empty when
        we hold none), so the circulating merge can union shares across
        members."""
        if stored is None:
            return coding.pack_fragments({})
        return coding.pack_fragments({self._index: stored})

    def merge_register(self, tag: Tag, blob: bytes) -> tuple[Tag, bytes]:
        """The max tag wins as in replicated mode; the value is a share
        *union* — the winning side's collected shares plus whatever
        share this server holds for that tag."""
        core = self.core
        if tag >= core.tag:
            shares = coding.unpack_fragments(blob)
        else:
            tag, shares = core.tag, {}
        mine = self._share_of(tag)
        if mine is not None:
            shares[self._index] = mine
        return tag, coding.pack_fragments(shares)

    def merge_entry(self, theirs: PendingEntry, ours: PendingEntry) -> PendingEntry:
        """Union our share into the circulating set."""
        shares = coding.unpack_fragments(theirs.value)
        shares.update(coding.unpack_fragments(ours.value))
        return PendingEntry(ours.tag, coding.pack_fragments(shares), ours.op)

    def _repaired(self, shares: dict[int, bytes]) -> tuple[bytes, bytes]:
        """``(full value, our share)`` re-derived from ``k`` or more
        other members' shares — the RADON-style repair rejoiners and
        merge losers ride."""
        full = coding.decode(shares, self._k, self._n)
        self.core.stats_coding_repairs += 1
        return full, self._own_share(full)

    def adopt_register(self, tag: Tag, blob: bytes) -> Optional[bytes]:
        """Our share of the merged committed register.  Missing (we
        never forwarded the winning write): with ``k`` or more shares
        collected it is re-derived on the spot and the decoded value
        seeds the cache; with fewer, ``None`` — the tag advances anyway
        and the next read repairs the share."""
        shares = coding.unpack_fragments(blob)
        mine = shares.get(self._index)
        if mine is None and len(shares) >= self._k:
            full, mine = self._repaired(shares)
            self._cache_tag, self._cache_value = tag, full
        return mine

    def adopt_entry(self, entry: PendingEntry) -> Optional[PendingEntry]:
        """Keep only our share of a token-form entry.

        The keep/drop decision must be a function of the union alone —
        every member applies the same commit, and a split decision lets
        the origin re-commit (and ack) a write its peers dropped, whose
        reads then never wait for it.  Unrecoverable (< k shares — the
        write was too young to reach k members before the view broke):
        drop it *everywhere*, origin included; it never completed
        anywhere (completion needs the full circle, and a completed
        write leaves >= k shares in any quorum under the liveness bound)
        and the client's retry re-initiates it.  Kept but our share
        missing: re-derive it.
        """
        shares = coding.unpack_fragments(entry.value)
        if len(shares) < self._k:
            self.core.stats_coding_pending_dropped += 1
            return None
        mine = shares.get(self._index)
        if mine is None:
            _full, mine = self._repaired(shares)
        return PendingEntry(entry.tag, mine, entry.op)

    def merged(self) -> None:
        """Stashes and parked pre-writes are superseded wholesale by the
        merged pending set; in-flight reconstructions died at the epoch
        seam (their waiters were re-queued at install)."""
        self._frag_stash.clear()
        self._parked_prewrites.clear()
        pending = self.core.pending
        self._origin_values = {
            tag: value
            for tag, value in self._origin_values.items()
            if tag in pending
        }
