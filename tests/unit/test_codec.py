"""Unit tests for the binary codec and stream framing."""

import struct
from dataclasses import dataclass

import pytest

from repro.core.messages import (
    SEQUENCE_KINDS,
    WIRE_LAYOUT,
    ClientRead,
    ClientWrite,
    Commit,
    FragmentFetch,
    FragmentReply,
    FragmentStore,
    Heartbeat,
    LeaseGrant,
    LeaseRevoke,
    OpId,
    PendingEntry,
    PreWrite,
    ReadAck,
    ReadFence,
    ReconfigCommit,
    ReconfigToken,
    RejoinRequest,
    StaleEpochNotice,
    StateSync,
    WriteAck,
    compile_size,
)
from repro.core.tags import Tag
from repro.errors import ProtocolError
from repro.transport.codec import compile_layout, decode_message, encode_message
from repro.transport.framing import FrameDecoder, frame

OP = OpId(11, 5)


@pytest.mark.parametrize(
    "message",
    [
        ClientWrite(OP, b"payload"),
        ClientWrite(OP, b""),
        WriteAck(OP, Tag(3, 1)),
        WriteAck(OP, None),
        ClientRead(OP),
        ReadAck(OP, b"\x00\xff" * 8, Tag(9, 0)),
        PreWrite(Tag(4, 2), b"value", OP, (Tag(1, 0), Tag(2, 3))),
        Commit((Tag(1, 1), Tag(2, 2))),
        Commit(()),
        StateSync(Tag(7, 0), b"state", (Tag(6, 1),)),
        ReconfigToken(5, 2, 1, (0, 3), Tag(8, 1), b"v",
                      (PendingEntry(Tag(9, 2), b"pv", OP),), ((11, 5), (12, 0))),
        ReconfigCommit(5, 2, 1, (0,), Tag(8, 1), b"", (), ()),
        ReconfigToken(6, 1, 0, (3,), Tag(9, 0), b"rv",
                      (), ((11, 5),), revived=(2,)),
        ReconfigCommit(6, 1, 0, (), Tag(9, 0), b"rv", (), (), revived=(1, 2)),
        ReconfigToken(7, 3, 2, (1,), Tag(10, 2), b"t",
                      (), ((11, 5), (12, 2)),
                      completed_tags=((11, Tag(9, 0)), (12, Tag(10, 2)))),
        ReconfigCommit(7, 3, 2, (1,), Tag(10, 2), b"t", (), ((11, 5),),
                       completed_tags=((11, Tag(9, 0)),)),
        RejoinRequest(2),
        RejoinRequest(3, generation=7),
        FragmentStore(Tag(5, 1), OP, 2, b"\x01\x02frag", epoch=3),
        FragmentStore(Tag(5, 1), OP, 0, b"", epoch=0),
        FragmentFetch(17, Tag(5, 1), 3, epoch=2),
        FragmentReply(17, Tag(5, 1), 1, b"peer-frag", epoch=2),
        FragmentReply(18, Tag(5, 1), -1, b"", epoch=2),
    ],
    ids=lambda m: type(m).__name__,
)
def test_roundtrip(message):
    assert decode_message(encode_message(message)) == message


def test_decode_rejects_short_input():
    with pytest.raises(ProtocolError):
        decode_message(b"\x01\x02")


def test_decode_rejects_unknown_type():
    data = bytearray(encode_message(ClientRead(OP)))
    data[0] = 250
    with pytest.raises(ProtocolError):
        decode_message(bytes(data))


def test_decode_rejects_truncated_body():
    data = encode_message(ClientWrite(OP, b"hello"))
    with pytest.raises(ProtocolError):
        decode_message(data[:-2])


def test_encode_rejects_foreign_objects():
    with pytest.raises(ProtocolError):
        encode_message("not a message")


def test_frame_roundtrip_in_chunks():
    messages = [ClientRead(OP), ClientWrite(OP, b"x" * 100), Commit((Tag(1, 1),))]
    stream = b"".join(frame(encode_message(m)) for m in messages)
    decoder = FrameDecoder()
    got = []
    # Feed byte-by-byte to exercise partial-frame buffering.
    for i in range(0, len(stream), 7):
        for payload in decoder.feed(stream[i : i + 7]):
            got.append(decode_message(payload))
    assert got == messages
    assert decoder.pending_bytes == 0


def test_frame_decoder_rejects_absurd_length():
    decoder = FrameDecoder()
    with pytest.raises(ProtocolError):
        decoder.feed(b"\xff\xff\xff\xff")


# ----------------------------------------------------------------------
# Truncation hardening: no decoder may yield silently-short fields.
# ----------------------------------------------------------------------

#: One instance of every encodable message type, with every optional
#: section populated so truncation sweeps cross every field boundary.
TRUNCATION_SAMPLES = [
    ClientWrite(OP, b"payload-bytes"),
    WriteAck(OP, Tag(3, 1)),
    ClientRead(OP, session=Tag(2, 2)),
    ReadAck(OP, b"read-value", Tag(9, 0)),
    PreWrite(Tag(4, 2), b"value", OP, (Tag(1, 0), Tag(2, 3)), epoch=5),
    Commit((Tag(1, 1), Tag(2, 2)), epoch=4),
    StateSync(Tag(7, 0), b"state", (Tag(6, 1),), epoch=2),
    ReconfigToken(5, 2, 1, (0, 3), Tag(8, 1), b"merged-value",
                  (PendingEntry(Tag(9, 2), b"pending-value", OP),),
                  ((11, 5), (12, 0)), revived=(2,),
                  completed_tags=((11, Tag(9, 0)),)),
    ReconfigCommit(6, 3, 0, (1,), Tag(9, 0), b"cv",
                   (PendingEntry(Tag(10, 1), b"pv", OP),), ((11, 5),),
                   completed_tags=((11, Tag(9, 0)),)),
    RejoinRequest(3, generation=7, epoch=2),
    StaleEpochNotice(4, 1),
    ReadFence(31, 2, epoch=4),
    Heartbeat(3),
    LeaseGrant(1, epoch=2, sent_at=0.125),
    LeaseRevoke(1, epoch=2),
    FragmentStore(Tag(5, 1), OP, 2, b"fragment-bytes", epoch=3),
    FragmentFetch(17, Tag(5, 1), 3, epoch=2),
    FragmentReply(17, Tag(5, 1), 1, b"peer-fragment", epoch=2),
]


def _truncated_frame(encoded: bytes, cut: int) -> bytes:
    """The first ``cut`` body bytes under a consistent (rewritten) header,
    so the failure exercised is a decoder over-read, not the outer
    header/body length mismatch."""
    body = encoded[8:cut + 8]
    return struct.pack(">B3xI", encoded[0], len(body)) + body


@pytest.mark.parametrize("message", TRUNCATION_SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_truncated_encodings_never_yield_short_fields(message):
    """Every truncation of every message type either raises
    ``ProtocolError`` or decodes to a *genuinely* shorter valid message
    (a trailing free-length value field — re-encoding must reproduce the
    truncated frame exactly).  Pre-hardening, truncated reconfiguration
    bodies decoded into silently-short values instead."""
    encoded = encode_message(message)
    body_len = len(encoded) - 8
    for cut in range(body_len):
        frame = _truncated_frame(encoded, cut)
        try:
            decoded = decode_message(frame)
        except ProtocolError:
            continue
        assert type(decoded) is type(message)
        assert encode_message(decoded) == frame, (
            f"{type(message).__name__} truncated to {cut}/{body_len} body "
            f"bytes decoded to a lossy {decoded!r}"
        )


@pytest.mark.parametrize(
    "message",
    [m for m in TRUNCATION_SAMPLES
     if isinstance(m, (ReconfigToken, ReconfigCommit, FragmentFetch))],
    ids=lambda m: type(m).__name__,
)
def test_fully_length_prefixed_types_reject_every_truncation(message):
    """Types without a trailing free-length field (every byte is covered
    by a count or length prefix) must reject *all* truncations."""
    encoded = encode_message(message)
    for cut in range(len(encoded) - 8):
        with pytest.raises(ProtocolError):
            decode_message(_truncated_frame(encoded, cut))


def _ends_definitely(message) -> bool:
    """Does the layout's last field say where the body ends (no tail, no
    tags-to-end)?"""
    _, fields = WIRE_LAYOUT[type(message)]
    counted, _ = SEQUENCE_KINDS.get(fields[-1][1], (True, ""))
    return counted


@pytest.mark.parametrize(
    "message",
    [m for m in TRUNCATION_SAMPLES if _ends_definitely(m)],
    ids=lambda m: type(m).__name__,
)
def test_bytes_after_the_last_field_are_rejected(message):
    """A layout with a definite end owns every byte of its body: junk
    appended under a consistent header is an error, not ignored."""
    encoded = encode_message(message)
    for junk in (b"\x00", b"junk!"):
        body = encoded[8:] + junk
        with pytest.raises(ProtocolError):
            decode_message(struct.pack(">B3xI", encoded[0], len(body)) + body)


def test_truncation_samples_cover_every_wire_type():
    assert {type(m) for m in TRUNCATION_SAMPLES} == set(WIRE_LAYOUT)


def test_a_new_message_is_a_dataclass_and_one_row():
    """Everything the codec needs to know about a message type is its
    row: compile one for a class the codec has never seen."""

    @dataclass(frozen=True)
    class Probe:
        op: OpId
        seen: tuple
        note: bytes
        epoch: int = 0
        session: object = None

    row = (("epoch", "i64"), ("op", "op"), ("session", "opt_tag"),
           ("note", "bytes"), ("seen", "tags_to_end"))
    encode, decode = compile_layout(Probe, 77, row)
    size = compile_size(row)
    for probe in (
        Probe(OP, (), b""),
        Probe(OP, (Tag(1, 0), Tag(2, 1)), b"note", epoch=9, session=Tag(4, 4)),
    ):
        data = encode(probe)
        assert data[0] == 77 and len(data) == size(probe)
        assert struct.unpack_from(">I", data, 4) == (len(data) - 8,)
        assert decode(memoryview(data)[8:]) == probe


def test_a_row_must_name_every_field_and_keep_open_ended_fields_last():
    @dataclass(frozen=True)
    class Probe:
        value: bytes
        epoch: int

    with pytest.raises(ProtocolError):
        compile_layout(Probe, 77, (("epoch", "i64"),))
    with pytest.raises(ProtocolError):
        compile_layout(Probe, 77, (("value", "tail"), ("epoch", "i64")))
