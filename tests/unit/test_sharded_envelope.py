"""ShardEnvelope accounting and per-block ring fairness."""

import pytest

from repro.core.messages import (
    BASE_WIRE_BYTES,
    OP_ID_WIRE_BYTES,
    TAG_WIRE_BYTES,
    ClientRead,
    ClientWrite,
    Commit,
    OpId,
    PreWrite,
    payload_size,
)
from repro.core.tags import Tag
from repro.runtime.sharded import BlockStore, ShardEnvelope
from repro.runtime.sim_net import _payload_of


# ----------------------------------------------------------------------
# payload_bytes accounting
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "inner",
    [
        ClientWrite(OpId(1, 0), b"x" * 100),
        ClientRead(OpId(2, 1)),
        PreWrite(Tag(3, 0), b"value", OpId(1, 2)),
        PreWrite(Tag(4, 1), b"v", OpId(1, 3), (Tag(1, 0), Tag(2, 1))),
        Commit((Tag(5, 2),)),
    ],
    ids=["write", "read", "prewrite", "prewrite+commits", "commit"],
)
def test_envelope_charges_block_header_plus_inner(inner):
    envelope = ShardEnvelope(7, inner)
    assert envelope.payload_bytes() == 4 + payload_size(inner)


def test_envelope_write_size_breaks_down_exactly():
    value = b"p" * 256
    envelope = ShardEnvelope(0, ClientWrite(OpId(9, 4), value))
    assert envelope.payload_bytes() == (
        4 + BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + len(value)
    )
    read_env = ShardEnvelope(0, ClientRead(OpId(9, 5)))
    # Reads always carry a session-tag slot (Tag.ZERO when unset).
    assert read_env.payload_bytes() == (
        4 + BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + TAG_WIRE_BYTES
    )
    commits = (Tag(1, 0), Tag(2, 1), Tag(3, 2))
    pre = ShardEnvelope(1, PreWrite(Tag(4, 0), value, OpId(9, 6), commits))
    assert pre.payload_bytes() == (
        4 + BASE_WIRE_BYTES + TAG_WIRE_BYTES + OP_ID_WIRE_BYTES + 8 + 4
        + len(value) + TAG_WIRE_BYTES * len(commits)
    )


def test_runtime_charges_the_envelope_not_the_inner():
    """The NIC accounting sizes messages via payload_bytes() when the
    message provides one — the envelope's 4-byte block header must be
    paid on the wire."""
    inner = ClientWrite(OpId(1, 0), b"data")
    envelope = ShardEnvelope(3, inner)
    assert _payload_of(envelope) == payload_size(inner) + 4
    assert _payload_of(inner) == payload_size(inner)


# ----------------------------------------------------------------------
# Round-robin fairness across blocks under mixed load
# ----------------------------------------------------------------------


class _StubProto:
    """Stands in for a per-block ServerProtocol with a message backlog."""

    def __init__(self, backlog: int):
        self.backlog = backlog
        self.successor = 1

    @property
    def has_ring_work(self):
        return self.backlog > 0

    def next_directed_message(self):
        return None

    def next_ring_message(self):
        if self.backlog == 0:
            return None
        self.backlog -= 1
        return "msg"

    def next_ring_batch(self, limit: int):
        batch = []
        while len(batch) < limit:
            message = self.next_ring_message()
            if message is None:
                break
            batch.append(message)
        return batch

    def drain_replies(self):
        return []


def _sharded_host(num_blocks: int, **kwargs):
    store = BlockStore.build(num_servers=2, num_blocks=num_blocks, seed=0, **kwargs)
    return store.cluster.servers[0]


def _unbatched():
    from repro.core.config import ProtocolConfig

    return ProtocolConfig(batch_max_messages=1)


def test_ring_source_round_robins_across_blocks():
    host = _sharded_host(3, protocol=_unbatched())
    host.protos = {0: _StubProto(2), 1: _StubProto(2), 2: _StubProto(2)}
    order = []
    for _ in range(6):
        dst, envelope, kind = host._ring_source()
        assert (dst, kind) == ("s1", "ring")
        order.append(envelope.reg)
    assert order == [0, 1, 2, 0, 1, 2], "each block gets one slot per cycle"
    assert host._ring_source() is None


def test_ring_source_skips_empty_blocks_without_starving_others():
    """Mixed load: block 1 idle, block 0 loaded, block 2 trickling.  The
    loaded block must not starve the trickle."""
    host = _sharded_host(3, protocol=_unbatched())
    host.protos = {0: _StubProto(4), 1: _StubProto(0), 2: _StubProto(2)}
    order = [host._ring_source()[1].reg for _ in range(6)]
    assert order == [0, 2, 0, 2, 0, 0]


def test_ring_source_batches_within_one_block_slot():
    """With batching on, one frame drains up to the limit from a single
    block — never mixing blocks (their ring views are independent) — and
    the slot still advances one block per frame."""
    from repro.core.config import ProtocolConfig

    host = _sharded_host(3, protocol=ProtocolConfig(batch_max_messages=4))
    host.protos = {0: _StubProto(6), 1: _StubProto(1), 2: _StubProto(2)}
    frames = []
    while True:
        item = host._ring_source()
        if item is None:
            break
        dst, payload, kind = item
        assert (dst, kind) == ("s1", "ring")
        envelopes = payload if isinstance(payload, list) else [payload]
        assert len({env.reg for env in envelopes}) == 1, "one block per frame"
        frames.append((envelopes[0].reg, len(envelopes)))
    assert frames == [(0, 4), (1, 1), (2, 2), (0, 2)]


def test_ring_source_resumes_after_idle_at_next_block():
    """The rotor survives idle periods: after a drained round, new work
    on a lower-numbered block does not reset the fairness pointer."""
    host = _sharded_host(3)
    stubs = {0: _StubProto(1), 1: _StubProto(0), 2: _StubProto(0)}
    host.protos = stubs
    assert host._ring_source()[1].reg == 0
    assert host._ring_source() is None
    stubs[0].backlog = 1
    stubs[1].backlog = 1
    # Pointer sits after block 0, so block 1 is served first.
    assert host._ring_source()[1].reg == 1
    assert host._ring_source()[1].reg == 0


def test_block_store_round_trip_still_works_end_to_end():
    store = BlockStore.build(num_servers=3, num_blocks=4, seed=2)
    for block in range(4):
        store.write_block(block, b"block-%d" % block)
    for block in range(4):
        assert store.read_block(block) == b"block-%d" % block


# ----------------------------------------------------------------------
# Reply pump: stale entries are skipped iteratively
# ----------------------------------------------------------------------


def test_reply_source_skips_stale_entries_without_recursing():
    """A burst of replies addressed to departed clients must be skipped
    in a loop: the old implementation recursed once per stale entry and
    blew the stack on backlogs past the interpreter's recursion limit."""
    from repro.runtime.interface import Reply

    store = BlockStore.build(num_servers=2, num_blocks=1, seed=5)
    host = store.cluster.servers[0]
    known = store._client.client_id
    host._reply_queue.extend(Reply(known + 1000, "gone") for _ in range(5000))
    host._reply_queue.append(Reply(known, "kept"))
    assert host._reply_source() == (store._client.name, "kept", "reply")
    assert not host._reply_queue
    assert host._reply_source() is None
