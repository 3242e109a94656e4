"""Unit tests for the sans-I/O reliable session layer.

The satellite contract: loss, reorder, duplication and
retransmit-after-crash-of-peer are all handled by the session pair
alone, with no network underneath — segments are carried by hand, which
is exactly what sans-I/O buys.
"""

import pytest

from repro.core.messages import ClientRead, OpId
from repro.errors import ConfigurationError, ProtocolError
from repro.transport.codec import decode_message, encode_message
from repro.transport.reliable import (
    SEGMENT_HEADER_BYTES,
    ReliableConfig,
    ReliableSession,
    Segment,
    decode_segment,
    encode_segment,
)


def pair():
    return ReliableSession(), ReliableSession()


def test_in_order_delivery_and_piggybacked_ack():
    a, b = pair()
    s1 = a.send("m1", now=0.0)
    s2 = a.send("m2", now=0.0)
    assert (s1.seq, s2.seq) == (1, 2)
    assert b.on_segment(s1, now=0.1) == ["m1"]
    assert b.on_segment(s2, now=0.1) == ["m2"]
    assert b.ack_owed
    # The ack rides on b's next data segment and clears a's window.
    reverse = b.send("r1", now=0.2)
    assert reverse.ack == 2 and not b.ack_owed
    a.on_segment(reverse, now=0.3)
    assert a.in_flight == 0
    assert a.retransmit_deadline is None


def test_lost_segment_is_retransmitted_with_backoff():
    config = ReliableConfig(rto_initial=0.1, rto_max=0.4, rto_backoff=2.0)
    a = ReliableSession(config)
    b = ReliableSession(config)
    a.send("lost", now=0.0)  # the wire eats it
    assert a.poll(now=0.05) == []  # not due yet
    (retx,) = a.poll(now=0.11)
    assert retx.seq == 1 and retx.payload == "lost"
    assert a.stats.retransmits == 1
    # Backoff doubled: next deadline is rto_backoff * rto_initial later.
    assert a.retransmit_deadline == pytest.approx(0.11 + 0.2)
    assert b.on_segment(retx, now=0.2) == ["lost"]
    # The receiver's ack stops the retransmission for good.
    a.on_segment(b.make_ack(), now=0.3)
    assert a.in_flight == 0 and a.retransmit_deadline is None


def test_reordered_segments_are_buffered_and_released_in_order():
    a, b = pair()
    s1 = a.send("m1", now=0.0)
    s2 = a.send("m2", now=0.0)
    s3 = a.send("m3", now=0.0)
    assert b.on_segment(s3, now=0.1) == []  # gap: buffered
    assert b.on_segment(s2, now=0.1) == []
    assert b.stats.reorders_buffered == 2
    assert b.on_segment(s1, now=0.1) == ["m1", "m2", "m3"]


def test_duplicates_are_suppressed_and_reacked():
    a, b = pair()
    s1 = a.send("m1", now=0.0)
    assert b.on_segment(s1, now=0.1) == ["m1"]
    b.make_ack()
    assert b.on_segment(s1, now=0.2) == []  # retransmit storm copy
    assert b.stats.dups_suppressed == 1
    # The duplicate re-arms the ack so the sender converges.
    assert b.ack_owed
    assert b.make_ack().ack == 1
    # A buffered out-of-order duplicate counts too.
    s2 = a.send("m2", now=0.3)
    s3 = a.send("m3", now=0.3)
    assert b.on_segment(s3, now=0.4) == []
    assert b.on_segment(s3, now=0.4) == []
    assert b.stats.dups_suppressed == 2
    assert b.on_segment(s2, now=0.5) == ["m2", "m3"]


def test_retransmit_after_crash_of_peer_until_reset():
    """A crashed peer never acks: the sender keeps retransmitting at the
    capped backoff until the runtime learns of the crash and resets the
    session — after which nothing is in flight and nothing fires."""
    config = ReliableConfig(rto_initial=0.1, rto_max=0.2, rto_backoff=2.0)
    a = ReliableSession(config)
    a.send("into the void", now=0.0)
    fired = 0
    now = 0.0
    for _ in range(6):
        now = a.retransmit_deadline
        fired += len(a.poll(now))
    assert fired == 6
    assert a.stats.retransmits == 6
    # Backoff saturates at rto_max: deadlines advance by 0.2 forever.
    assert a.retransmit_deadline == pytest.approx(now + 0.2)
    a.reset()  # failure detector: the peer is dead, channel abandoned
    assert a.in_flight == 0
    assert a.retransmit_deadline is None
    assert a.poll(now=100.0) == []
    # The session is reusable for a fresh channel afterwards.
    assert a.send("again", now=100.0).seq == 1


def test_ack_advance_snaps_backoff_to_initial():
    config = ReliableConfig(rto_initial=0.1, rto_max=0.8, rto_backoff=2.0)
    a = ReliableSession(config)
    a.send("m1", now=0.0)
    a.poll(now=0.1)
    a.poll(now=0.3)  # rto now 0.4
    a.send("m2", now=0.35)
    a.on_segment(Segment(0, 1), now=0.4)  # ack m1 only
    # Window advanced: rto snaps back, m2 still covered.
    assert a.in_flight == 1
    assert a.retransmit_deadline == pytest.approx(0.5)


def test_stale_ack_does_not_rearm_the_timer():
    a = ReliableSession()
    a.send("m1", now=0.0)
    a.on_segment(Segment(0, 1), now=0.1)
    assert a.retransmit_deadline is None
    a.on_segment(Segment(0, 1), now=0.2)  # duplicate ack
    assert a.retransmit_deadline is None and a.in_flight == 0


def test_segment_wire_roundtrip():
    message = ClientRead(OpId(7, 3))
    data = Segment(5, 2, message)
    encoded = encode_segment(data, encode_message)
    assert len(encoded) == SEGMENT_HEADER_BYTES + len(encode_message(message))
    decoded = decode_segment(encoded, decode_message)
    assert decoded.seq == 5 and decoded.ack == 2 and decoded.payload == message

    ack = Segment(0, 9)
    encoded = encode_segment(ack, encode_message)
    assert len(encoded) == SEGMENT_HEADER_BYTES
    decoded = decode_segment(encoded, decode_message)
    assert decoded == ack and not decoded.is_data

    with pytest.raises(ProtocolError):
        decode_segment(b"\x00\x01", decode_message)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ReliableConfig(rto_initial=0.0).validate()
    with pytest.raises(ConfigurationError):
        ReliableConfig(rto_initial=0.2, rto_max=0.1).validate()
    with pytest.raises(ConfigurationError):
        ReliableConfig(rto_backoff=0.5).validate()
