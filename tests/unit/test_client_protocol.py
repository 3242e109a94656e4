"""Unit tests for the client state machine (issue, ack, retry).

A client has one operation in flight, so it states its effects without
timer ids: each request carries its attempt's timeout, and the runtime's
one deadline per client ends with ``Complete`` or ``Fail``.
"""

import pytest

from repro.core.client import ClientProtocol
from repro.core.config import ProtocolConfig
from repro.core.messages import ClientRead, ClientWrite, ReadAck, WriteAck
from repro.core.tags import Tag
from repro.errors import ProtocolError
from repro.runtime.interface import Complete, Fail, SendTo


def make_client(**overrides):
    config = ProtocolConfig(client_timeout=1.0, client_max_retries=2, **overrides)
    return ClientProtocol(50, servers=[0, 1, 2], config=config)


def _op_state(client):
    return client._outstanding, client._message, client._retries


def test_write_issues_request_and_timer():
    client = make_client()
    op, effects = client.start_write(b"v")
    (send,) = effects
    assert isinstance(send, SendTo) and send.server == 0
    assert isinstance(send.message, ClientWrite) and send.message.value == b"v"
    assert send.timeout == 1.0, "the request carries its attempt's timeout"
    assert client.busy


def test_read_completes_on_ack():
    client = make_client()
    op, _effects = client.start_read()
    (complete,) = client.on_reply(ReadAck(op, b"data", Tag(1, 0)))
    assert isinstance(complete, Complete)
    assert complete.value == b"data" and complete.kind == "read"
    assert not client.busy


def test_write_completes_on_ack_with_tag():
    client = make_client()
    op, _ = client.start_write(b"v")
    (complete,) = client.on_reply(WriteAck(op, Tag(4, 2)))
    assert complete == Complete(op, kind="write", tag=Tag(4, 2))


def test_one_operation_at_a_time():
    client = make_client()
    client.start_write(b"v")
    with pytest.raises(ProtocolError):
        client.start_read()


def test_timeout_retries_at_next_server():
    client = make_client()
    op, _ = client.start_write(b"v")
    (send,) = client.on_timeout()
    assert send.server == 1 and send.timeout == 1.0
    assert send.message.op == op, "retries reuse the op id for dedup"
    assert client.stats_retries == 1


def test_retries_walk_all_servers_round_robin():
    client = make_client()
    client.start_write(b"v")
    servers = [effect.server for _ in range(2) for effect in client.on_timeout()]
    assert servers == [1, 2]


def test_retries_exhausted_fails_operation():
    client = make_client()
    op, _ = client.start_write(b"v")
    client.on_timeout()
    client.on_timeout()
    assert client.on_timeout() == [Fail(op, reason="retries exhausted")]
    assert not client.busy


def test_retries_exhausted_resets_full_op_state():
    """Regression: the exhausted path used to leave the retry count
    stale.  A late ack arriving after the Fail must be ignored, and the
    next operation must start with a fresh retry budget and the right
    kind."""
    client = make_client()
    op, _ = client.start_write(b"v")
    for _ in range(2):
        client.on_timeout()
    (fail,) = client.on_timeout()
    assert isinstance(fail, Fail) and fail.op == op
    assert _op_state(client) == (None, None, 0)

    # A late ack for the failed write is stale, not a completion.
    assert client.on_reply(WriteAck(op, Tag(9, 1))) == []
    assert not client.busy

    # The next operation starts clean: full retry budget, correct kind.
    op2, (send,) = client.start_read()
    assert op2.seq == op.seq + 1
    assert isinstance(send.message, ClientRead) and client._retries == 0
    (complete,) = client.on_reply(ReadAck(op2, b"x", Tag(1, 0)))
    assert complete.kind == "read"
    # And its retry budget was not eaten by the failed predecessor.
    client2 = make_client()
    client2.start_write(b"w")
    for _ in range(3):  # exhausted (2 retries allowed)
        client2.on_timeout()
    client2.start_write(b"w2")
    assert not any(
        isinstance(e, Fail) for e in client2.on_timeout()
    ), "the new op must get its own full retry budget"


def test_stale_replies_and_timers_ignored():
    client = make_client()
    op, _ = client.start_write(b"v")
    client.on_reply(WriteAck(op, Tag(1, 0)))
    assert client.on_reply(WriteAck(op, Tag(1, 0))) == []
    assert client.on_timeout() == [], "a timeout with nothing in flight is a no-op"
    assert client.stats_retries == 0


def test_duplicate_ack_after_retry_is_harmless():
    client = make_client()
    op, _ = client.start_write(b"v")
    client.on_timeout()  # retried to server 1
    effects = client.on_reply(WriteAck(op, Tag(1, 0)))  # ack from either server
    assert any(isinstance(e, Complete) for e in effects)
    assert client.on_reply(WriteAck(op, Tag(1, 0))) == []


def test_op_ids_are_unique_and_increasing():
    client = make_client()
    op1, _ = client.start_write(b"a")
    client.on_reply(WriteAck(op1, Tag(1, 0)))
    op2, _ = client.start_read()
    assert op2.seq == op1.seq + 1
    assert op1.client == op2.client == 50


def test_needs_at_least_one_server():
    with pytest.raises(ProtocolError):
        ClientProtocol(1, servers=[])


def test_reissue_resends_to_the_same_server_with_the_timeout():
    client = make_client()
    op, (first,) = client.start_write(b"v")
    assert client.reissue() == [first], "a redirect costs no retry"
    assert client.stats_retries == 0
    client.on_reply(WriteAck(op, Tag(1, 0)))
    assert client.reissue() == []


def test_fail_current_resets_the_op_state():
    client = make_client()
    op, _ = client.start_write(b"v")
    client.on_timeout()
    assert client.fail_current("placement stale") == [Fail(op, "placement stale")]
    assert _op_state(client) == (None, None, 0)
    assert client.fail_current("again") == []


def test_abandon_resets_op_state_and_reports_the_op():
    client = make_client()
    op, _ = client.start_write(b"v")
    client.on_timeout()  # one retry consumed
    assert client.abandon() == op
    assert _op_state(client) == (None, None, 0)
    # The handle is reusable and the new op starts from scratch: a full
    # retry budget and no phantom outstanding op.
    op2, effects = client.start_read()
    assert op2.seq == op.seq + 1
    assert any(isinstance(e, SendTo) for e in effects)
    assert not any(
        isinstance(e, Fail) for e in client.on_timeout()
    ), "the abandoned op's consumed retries must not leak into the next op"


def test_abandon_with_nothing_in_flight_is_a_noop():
    client = make_client()
    assert client.abandon() is None
    op, _ = client.start_write(b"v")
    client.on_reply(WriteAck(op, Tag(1, 0)))
    assert client.abandon() is None
