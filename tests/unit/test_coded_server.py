"""Integration tests for the erasure-coded value backend.

Drives coded-mode :class:`ServerProtocol` rings by hand (view_quorum
suspicion and proposals included), asserting the protocol-level
contract: the circulating pre-write carries no value, every member ends
up with exactly its fragment, reads reconstruct the full value, and the
reconfiguration merge repairs missing fragments (the RADON-style path).
"""

from __future__ import annotations

import pytest

from repro.core import coding
from repro.core.config import ProtocolConfig
from repro.core.durable import MemorySnapshotStore
from repro.core.messages import (
    ClientRead,
    ClientWrite,
    FragmentStore,
    OpId,
    PreWrite,
    ReadAck,
    WriteAck,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag
from repro.errors import ProtocolError

K, N = 2, 4


def coded_config(**overrides) -> ProtocolConfig:
    return ProtocolConfig(
        view_quorum=True, value_coding="coded", coding_k=K, coding_n=N,
        **overrides,
    )


class CodedRing:
    """Lossless hand-driven ring with directed (outbox) delivery."""

    def __init__(self, n: int = N, initial_value: bytes = b"",
                 config: ProtocolConfig | None = None, durable: bool = False):
        ring = RingView.initial(n)
        cfg = config or coded_config()
        self.stores = [MemorySnapshotStore() if durable else None
                       for _ in range(n)]
        self.servers = [
            ServerProtocol(i, ring, cfg, initial_value=initial_value,
                           durable=self.stores[i])
            for i in range(n)
        ]
        self.replies: list = []
        self.sent: list = []  # (src, dst, message) log of every hop
        self._next_op = 0

    def write(self, server_id: int, value: bytes, client: int = 900) -> OpId:
        op = OpId(client, self._next_op)
        self._next_op += 1
        self.replies.extend(
            self.servers[server_id].on_client_message(client, ClientWrite(op, value))
        )
        return op

    def read(self, server_id: int, client: int = 901) -> OpId:
        op = OpId(client, self._next_op)
        self._next_op += 1
        self.replies.extend(
            self.servers[server_id].on_client_message(client, ClientRead(op))
        )
        return op

    def pump(self, alive=None, rounds: int = 400,
             require_quiet: bool = True) -> None:
        living = (set(alive) if alive is not None
                  else {s.server_id for s in self.servers})
        for _ in range(rounds):
            moved = False
            for server in self.servers:
                if server.server_id not in living:
                    continue
                directed = server.next_directed_message()
                if directed is not None:
                    dst, message = directed
                    self.sent.append((server.server_id, dst, message))
                    if dst in living:
                        self.replies.extend(
                            self.servers[dst].on_ring_message(
                                message, server.server_id
                            )
                        )
                    moved = True
                    continue
                message = server.next_ring_message()
                if message is not None:
                    dst = server.successor
                    self.sent.append((server.server_id, dst, message))
                    if dst in living:
                        self.replies.extend(
                            self.servers[dst].on_ring_message(
                                message, server.server_id
                            )
                        )
                    moved = True
            if not moved:
                return
        if require_quiet:
            raise AssertionError("ring did not quiesce")

    def acks_for(self, op: OpId) -> list:
        return [r.message for r in self.replies
                if getattr(r.message, "op", None) == op]


def test_coded_requires_matching_ring_size():
    with pytest.raises(ProtocolError, match="coding_n"):
        ServerProtocol(0, RingView.initial(3), coded_config())


def test_write_stripes_and_circulates_empty_prewrite():
    ring = CodedRing()
    value = bytes(range(256)) * 8
    op = ring.write(0, value)
    ring.pump()

    acks = ring.acks_for(op)
    assert acks and isinstance(acks[0], WriteAck) and acks[0].tag is not None
    committed = acks[0].tag

    prewrites = [m for _s, _d, m in ring.sent if isinstance(m, PreWrite)]
    assert prewrites and all(m.value == b"" for m in prewrites), (
        "the circulating pre-write must not carry the value"
    )
    stores = [m for _s, _d, m in ring.sent if isinstance(m, FragmentStore)]
    assert len(stores) == N - 1, "origin sends every peer exactly its share"

    # Every server committed the tag and holds exactly its own fragment.
    expected = coding.encode(value, K, N)
    for server in ring.servers:
        assert server.tag == committed
        assert server.frag_tag is None
        assert server.value == expected[server.server_id]
        assert not server.pending


def test_read_at_origin_hits_cache_and_elsewhere_reconstructs():
    ring = CodedRing()
    value = b"\xab\xcd" * 5000
    ring.write(2, value)
    ring.pump()

    # Origin kept the full value: no fetch round needed.
    op = ring.read(2)
    acks = ring.acks_for(op)
    assert acks and acks[0].value == value
    assert ring.servers[2].stats_coding_cache_reads == 1
    assert ring.servers[2].stats_coding_reconstructions == 0

    # A non-origin server must gather k fragments from the ring.
    op = ring.read(1)
    assert not ring.acks_for(op), "reply deferred until reconstruction"
    ring.pump()
    acks = ring.acks_for(op)
    assert acks and isinstance(acks[0], ReadAck) and acks[0].value == value
    assert ring.servers[1].stats_coding_reconstructions == 1

    # The decoded value is cached: the next read is local again.
    op = ring.read(1)
    assert ring.acks_for(op)[0].value == value
    assert ring.servers[1].stats_coding_cache_reads == 1


def test_initial_value_readable_without_any_write():
    initial = b"genesis" * 100
    ring = CodedRing(initial_value=initial)
    op = ring.read(3)
    acks = ring.acks_for(op)
    assert acks and acks[0].value == initial and acks[0].tag == Tag.ZERO


def test_exclusion_merge_unions_fragments_and_write_survives():
    """A member crash mid-write: the merged token unions the survivors'
    fragment shares, the re-commit completes the write, and every
    survivor ends with its own (possibly repaired) fragment."""
    ring = CodedRing()
    value = b"survives-the-view-change" * 64
    op = ring.write(0, value)
    # Let the fragments scatter and the pre-write travel partway, with
    # server 3 (the last hop) already gone: the circle cannot close in
    # epoch 0, so completion must come from the post-merge re-commit.
    alive = [0, 1, 2]
    ring.pump(alive=alive, rounds=6, require_quiet=False)
    for sid in alive:
        ring.servers[sid].on_suspect(3)
    for sid in alive:
        ring.replies.extend(ring.servers[sid].propose_reconfig())
    ring.pump(alive=alive)

    acks = ring.acks_for(op)
    assert acks and isinstance(acks[0], WriteAck) and acks[0].tag is not None
    expected = coding.encode(value, K, N)
    for sid in alive:
        server = ring.servers[sid]
        assert server.installed_epoch == 1
        assert server.tag == acks[0].tag
        assert not server.pending
        assert server.value == expected[sid] and server.frag_tag is None

    # And the value reads back on the shrunken ring.
    rop = ring.read(1)
    ring.pump(alive=alive)
    racks = ring.acks_for(rop)
    assert racks and racks[0].value == value


def test_rejoin_merge_repairs_fragment_from_k_peers():
    """RADON-style repair: a server that missed a write entirely (down
    while it committed) re-derives its fragment from the k shares the
    fold-in merge collected."""
    ring = CodedRing()
    alive = [0, 1, 2]
    for sid in alive:
        ring.servers[sid].on_suspect(3)
    for sid in alive:
        ring.replies.extend(ring.servers[sid].propose_reconfig())
    ring.pump(alive=alive)
    assert all(ring.servers[s].installed_epoch == 1 for s in alive)

    value = b"written-while-3-was-down" * 99
    op = ring.write(1, value)
    ring.pump(alive=alive)
    assert ring.acks_for(op)

    # Server 3 heals: unsuspect, announce, fold back in via a revived
    # reconfiguration.
    for sid in alive:
        ring.servers[sid].on_unsuspect(3)
    ring.servers[3].views._enter_rejoining()
    ring.servers[3].queue_rejoin_announce(0)
    ring.pump()
    for sid in alive:
        ring.replies.extend(ring.servers[sid].propose_reconfig())
    ring.pump()

    s3 = ring.servers[3]
    assert not s3.rejoining and not s3.paused
    committed = ring.servers[1].tag
    assert s3.tag == committed
    expected = coding.encode(value, K, N)
    assert s3.value == expected[3] and s3.frag_tag is None, (
        "the fold-in merge must re-derive the rejoiner's fragment"
    )
    assert s3.stats_coding_repairs >= 1

    # The repaired server serves reads of the value it never saw.
    rop = ring.read(3)
    ring.pump()
    racks = ring.acks_for(rop)
    assert racks and racks[0].value == value


def test_crash_restart_restores_fragment_and_serves():
    """Durable round trip: the snapshot persists the fragment (and its
    lag marker) and a restored server reconstructs reads normally."""
    ring = CodedRing(durable=True)
    value = b"persisted" * 1234
    ring.write(0, value)
    ring.pump()

    snapshot = ring.stores[2].load()
    assert snapshot is not None
    expected = coding.encode(value, K, N)
    assert snapshot.value == expected[2]
    assert snapshot.frag_tag is None

    restored = ServerProtocol.restore(
        2, tuple(range(N)), snapshot, coded_config(),
        durable=ring.stores[2], generation=2,
    )
    assert restored.value == expected[2]
    assert restored.rejoining and restored.paused
    # Swap the restarted incarnation in and fold it back into the ring.
    ring.servers[2] = restored
    restored.queue_rejoin_announce(0)
    ring.pump()
    for sid in (0, 1, 3):
        ring.replies.extend(ring.servers[sid].propose_reconfig())
    ring.pump()
    assert not restored.rejoining
    rop = ring.read(2)
    ring.pump()
    racks = ring.acks_for(rop)
    assert racks and racks[0].value == value


def test_initiation_notes_minted_tag_for_uniqueness():
    """Regression (chaos coded #16): the origin must note its own minted
    tag in ``ts_seen`` at initiation.  A duplicate initiation that is
    later zombie-dropped (its op committed under a lower tag elsewhere)
    otherwise leaves no local trace, and ``_next_ts`` could mint the
    same tag for a *different* op — and peers' fragment stashes are
    keyed by tag, so one committed tag would cover two ops' fragment
    sets, decoding to the wrong value."""
    ring = CodedRing()
    op = ring.write(3, b"minted" * 16)
    s3 = ring.servers[3]
    assert s3.next_ring_message() is not None  # initiates; never delivered
    minted = s3.op_index[op]
    assert s3.ts_seen >= minted.ts, "minted tag must be noted immediately"
    # Even with the pending entry gone (the zombie-drop path), the
    # timestamp must never be reissued.
    s3.pending.pop(minted)
    assert s3._next_ts() > minted.ts


def test_unrecoverable_pending_dropped_uniformly_at_merge():
    """Regression (chaos coded #7): a merged pending entry whose
    fragment union holds fewer than k shares must be dropped by *every*
    member, origin included.  The origin keeping it (it holds its own
    share) would re-commit and ack a write its peers dropped — their
    reads never wait for it and its value is unrecoverable ring-wide."""
    ring = CodedRing()
    base = b"base" * 32
    ring.write(0, base)
    ring.pump()
    base_tag = ring.servers[0].tag

    # Initiate a write whose fragments and pre-write all die on the
    # wire: only the origin's own share ever exists.
    wop = ring.write(0, b"lost" * 32)
    ring.pump(alive=[0], rounds=8, require_quiet=False)
    assert ring.servers[0].pending, "write must be pending at the origin"

    # A view change excludes server 3; the merge sees one share (< k).
    alive = [0, 1, 2]
    for sid in alive:
        ring.servers[sid].on_suspect(3)
    for sid in alive:
        ring.replies.extend(ring.servers[sid].propose_reconfig())
    ring.pump(alive=alive)

    # Dropped everywhere: no ack, no pending, registers stay at base.
    assert not ring.acks_for(wop), "an unrecoverable write must not ack"
    for sid in alive:
        server = ring.servers[sid]
        assert not server.pending
        assert server.tag == base_tag
    assert all(ring.servers[s].stats_coding_pending_dropped == 1
               for s in alive)

    # Reads serve the base value instead of stalling on the lost write.
    rop = ring.read(1)
    ring.pump(alive=alive)
    racks = ring.acks_for(rop)
    assert racks and racks[0].value == base

    # The client's retry re-initiates under a fresh tag and completes.
    retry = ClientWrite(wop, b"lost" * 32)
    ring.replies.extend(ring.servers[0].on_client_message(900, retry))
    ring.pump(alive=alive)
    acks = ring.acks_for(wop)
    assert acks and isinstance(acks[-1], WriteAck)
    assert acks[-1].tag is not None and acks[-1].tag > base_tag


def test_reads_linearize_with_pending_write():
    """A read that arrives while a write circulates waits for the
    commit and returns the new value, reconstructed."""
    ring = CodedRing()
    old = b"old" * 100
    ring.write(0, old)
    ring.pump()
    new = b"new" * 100
    wop = ring.write(0, new)
    # Deliver a couple of hops so server 2 has the pre-write pending.
    ring.pump(rounds=3, require_quiet=False)
    assert ring.servers[2].pending, "write must be pending at server 2"
    rop = ring.read(2)
    assert not ring.acks_for(rop), "read waits behind the pending write"
    ring.pump()
    assert ring.acks_for(wop)
    racks = ring.acks_for(rop)
    assert racks and racks[0].value == new
