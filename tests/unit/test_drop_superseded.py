"""The zombie sweep after a commit (``ServerProtocol._drop_superseded``).

A client retry can make two servers initiate the same operation under
two tags.  The lowest tag is the one copy allowed to commit; a server
that already holds the higher copy in its pending set keeps it as a
*zombie* until the winner's commit arrives, and must then drop it —
otherwise reads wait for a commit that never comes and the zombie's ack
waiters are never answered.

Driven by hand at server 1 of a four-server ring, which initiates the
operation itself (tag ``(1, 1)``) and then sees server 0's lower-tag
copy ``(1, 0)`` pass through and commit.
"""

from __future__ import annotations

import pytest

from repro.core import coding
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    ClientRead,
    ClientWrite,
    Commit,
    FragmentStore,
    OpId,
    PreWrite,
    ReadAck,
    WriteAck,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag

N, K = 4, 2
ME = 1
WINNER, ZOMBIE = Tag(1, 0), Tag(1, ME)
OP = OpId(900, 0)
WRITER, RETRIER, READER = 900, 902, 901
VALUE = b"duplicated-write" * 8

CONFIGS = {
    "replicated": ProtocolConfig(),
    "coded": ProtocolConfig(
        view_quorum=True, value_coding="coded", coding_k=K, coding_n=N
    ),
}


def _server_holding_a_zombie(mode: str) -> tuple[ServerProtocol, OpId]:
    """Server 1 with both copies of ``OP`` pending, a retry waiting on
    the zombie's tag and a read whose threshold is the zombie."""
    server = ServerProtocol(ME, RingView.initial(N), CONFIGS[mode])
    coded = mode == "coded"

    # Own initiation: the zombie-to-be enters pending with the writer as
    # its ack waiter.
    assert server.on_client_message(WRITER, ClientWrite(OP, VALUE)) == []
    assert server.next_ring_message().tag == ZOMBIE
    # A retry of the in-flight write joins the endorsed tag's waiters.
    assert server.on_client_message(RETRIER, ClientWrite(OP, VALUE)) == []
    assert server.ack_waiters[ZOMBIE] == [(WRITER, OP), (RETRIER, OP)]

    # Server 0's copy of the same operation arrives (in coded mode its
    # fragment first, or the pre-write parks) and is forwarded: the
    # endorsement moves to the lower tag, the higher stays as a zombie.
    if coded:
        share = coding.encode(VALUE, K, N)[ME]
        server.on_ring_message(FragmentStore(WINNER, OP, ME, share), 0)
    server.on_ring_message(PreWrite(WINNER, b"" if coded else VALUE, OP), 0)
    assert server.next_ring_message().tag == WINNER
    assert list(server.pending) == [ZOMBIE, WINNER]
    assert server.op_index[OP] == WINNER

    read = OpId(READER, 0)
    assert server.on_client_message(READER, ClientRead(read)) == []
    assert server.read_waiters == [(ZOMBIE, READER, read)]
    return server, read


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_commit_under_another_tag_sweeps_the_zombie(mode):
    server, read = _server_holding_a_zombie(mode)
    server.queued_tags.add(ZOMBIE)  # the sweep must cover the queue filter too

    replies = server.on_ring_message(Commit((WINNER,)), 0)

    assert not server.pending, "zombie must leave the pending set"
    assert ZOMBIE not in server.queued_tags
    assert server.pending.maxlex() == Tag.ZERO
    assert OP not in server.op_index
    assert not server.ack_waiters
    assert server.stats_superseded_dropped == 1
    assert server.tag == WINNER

    # The zombie's waiters are answered with the tag the write really
    # committed under.
    acks = [r for r in replies if isinstance(r.message, WriteAck)]
    assert [(r.client, r.message) for r in acks] == [
        (WRITER, WriteAck(OP, WINNER)),
        (RETRIER, WriteAck(OP, WINNER)),
    ]

    # The read's threshold pointed at the zombie; it is clamped to the
    # committed tag and the read is released.
    assert server.read_waiters == []
    if mode == "replicated":
        (answer,) = [r for r in replies if isinstance(r.message, ReadAck)]
        assert answer.client == READER
        assert answer.message == ReadAck(read, VALUE, WINNER)
    else:
        # Coded reads materialise the value from peers; being released
        # means the reconstruction for the committed tag has started.
        assert ZOMBIE not in server.values._origin_values
        assert ZOMBIE not in server.values._frag_stash
        assert list(server.values._recon_by_tag) == [WINNER]


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_an_unrelated_commit_leaves_other_operations_pending(mode):
    server, _read = _server_holding_a_zombie(mode)
    other = OpId(903, 0)
    bystander = Tag(2, 2)
    if mode == "coded":
        share = coding.encode(b"other", K, N)[ME]
        server.on_ring_message(FragmentStore(bystander, other, ME, share), 2)
    server.on_ring_message(
        PreWrite(bystander, b"" if mode == "coded" else b"other", other), 0
    )
    assert server.next_ring_message().tag == bystander

    server.on_ring_message(Commit((WINNER,)), 0)

    assert list(server.pending) == [bystander]
    assert server.pending.maxlex() == bystander
    assert server.op_index == {other: bystander}
