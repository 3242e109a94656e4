"""The wire format's catalogue facts, checked against the live classes.

No lint rule re-reads the message catalogue: the codec's import check
(``repro.transport.codec.check_catalogue``) rejects a class without a
row, a row for a class in no union, a shared type code and a ring
message without an epoch stamp; ``compile_layout`` rejects a row that
does not name each field once; and the width constants are derived from
the formats that pack them.  Each case here drives one of those checks
directly, or pins a constant against the bytes the codec writes; the
last three break ``core/messages.py`` in a copy of the tree and watch
the codec's import fail.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union, get_args

import pytest

from repro.core.messages import (
    BASE_WIRE_BYTES,
    OP_ID_WIRE_BYTES,
    TAG_WIRE_BYTES,
    WIRE_LAYOUT,
    Commit,
    OpId,
    PreWrite,
    RingMessage,
    WriteAck,
)
from repro.core.tags import Tag
from repro.core.values import FRAGMENT_MESSAGES
from repro.errors import ProtocolError
from repro.transport import codec
from repro.transport.codec import check_catalogue, compile_layout, encode_message
from repro.transport.reliable import (
    BATCH_ENTRY_BYTES,
    BATCH_HEADER_BYTES,
    BATCH_SENTINEL,
    SEGMENT_HEADER_BYTES,
    ReliableSession,
    Segment,
    encode_batch,
    encode_segment,
)
from tests.helpers import run_mutated

OP = OpId(11, 5)


def test_conforming_trio_passes():
    """The committed catalogue passes the import check, and every row
    compiles."""
    check_catalogue(WIRE_LAYOUT)
    for cls, (code, fields) in WIRE_LAYOUT.items():
        compile_layout(cls, code, fields)


def test_ring_message_without_epoch_flagged(monkeypatch):
    @dataclass(frozen=True)
    class Probe:
        seq: int

    monkeypatch.setattr(codec, "RingMessage", Union[PreWrite, Probe])
    with pytest.raises(ProtocolError, match="ring message Probe has no epoch field"):
        check_catalogue(WIRE_LAYOUT)


def test_fragment_class_outside_ring_union_flagged():
    """The coded backend's messages are epoch-fenced ring traffic: one
    outside ``RingMessage`` would skip the epoch guard, the epoch-stamp
    check and the server's ring dispatch."""
    assert FRAGMENT_MESSAGES
    assert set(FRAGMENT_MESSAGES) <= set(get_args(RingMessage))


def test_missing_row_flagged():
    without_commit = {cls: row for cls, row in WIRE_LAYOUT.items() if cls is not Commit}
    with pytest.raises(ProtocolError, match="message class: Commit$"):
        check_catalogue(without_commit)


def test_duplicate_type_code_flagged():
    with pytest.raises(ProtocolError, match="type code 5 is both PreWrite and Commit"):
        check_catalogue({**WIRE_LAYOUT, Commit: (5, WIRE_LAYOUT[Commit][1])})


def test_row_naming_a_non_field_flagged():
    code, fields = WIRE_LAYOUT[PreWrite]
    with pytest.raises(ProtocolError, match="PreWrite: a layout names each field once"):
        compile_layout(PreWrite, code, (*fields, ("origin", "i32")))


def test_row_for_a_class_outside_the_unions_flagged():
    with pytest.raises(ProtocolError, match="message class: OpId$"):
        check_catalogue({**WIRE_LAYOUT, OpId: (99, (("client", "i64"),))})


def test_width_constant_mismatch_flagged():
    """The header, tag and op-id widths are the bytes the codec writes."""
    assert (TAG_WIRE_BYTES, OP_ID_WIRE_BYTES, BASE_WIRE_BYTES) == (12, 12, 8)
    ack = encode_message(WriteAck(OP, Tag(3, 1)))
    assert len(ack) == BASE_WIRE_BYTES + OP_ID_WIRE_BYTES + TAG_WIRE_BYTES


def test_segment_header_mismatch_flagged():
    """The segment header and batch entry widths are the bytes the
    session layer writes."""
    assert (SEGMENT_HEADER_BYTES, BATCH_ENTRY_BYTES) == (8, 4)
    segment = Segment(1, 0, Commit((Tag(3, 1),)))
    alone = encode_segment(segment, encode_message)
    assert len(alone) == SEGMENT_HEADER_BYTES + len(encode_message(segment.payload))
    batch = encode_batch([segment, segment], encode_message)
    assert len(batch) == BATCH_HEADER_BYTES + 2 * (BATCH_ENTRY_BYTES + len(alone))


def test_non_maximal_sentinel_flagged():
    """The sentinel is the largest value the seq slot can carry."""
    assert BATCH_SENTINEL == 2 ** (8 * BATCH_ENTRY_BYTES) - 1
    encode_segment(Segment(BATCH_SENTINEL, 0, Commit(())), encode_message)
    with pytest.raises(struct.error):
        encode_segment(Segment(BATCH_SENTINEL + 1, 0, Commit(())), encode_message)


def test_seq_initialised_at_sentinel_flagged():
    """A fresh session, and a reset one, numbers its first data segment
    1, far from the sentinel."""
    session = ReliableSession()
    assert session.send(Commit(()), 0.0).seq == 1
    session.send(Commit(()), 0.0)
    session.reset()
    assert session.send(Commit(()), 0.0).seq == 1


def _import_codec_after(tmp_path, *replacements: tuple[str, str]) -> str:
    """The last stderr line of importing the codec from a copy of the
    tree whose ``core/messages.py`` has each ``(old, new)`` replaced."""

    def edit(text: str) -> str:
        for old, new in replacements:
            assert text.count(old) == 1, "the mutation site moved"
            text = text.replace(old, new)
        return text

    done = run_mutated(
        tmp_path, "core/messages.py", edit, "-c", "import repro.transport.codec"
    )
    assert done.returncode != 0
    return done.stderr.strip().splitlines()[-1]


def test_unregistering_codec_entry_is_caught(tmp_path):
    """Deleting a message's ``WIRE_LAYOUT`` row fails the codec import."""
    error = _import_codec_after(
        tmp_path, ('    Commit: (6, (("epoch", "i64"), ("commits", "tags_to_end"))),\n', "")
    )
    assert "one row per message class: Commit" in error


def test_ring_message_without_epoch_is_caught(tmp_path):
    """A ring message without the epoch stamp fails the codec import."""
    error = _import_codec_after(
        tmp_path,
        ("    origin: int\n    epoch: int = 0\n", "    origin: int\n"),
        ('("origin", "i32"), ("epoch", "i64")', '("origin", "i32")'),
    )
    assert "ring message ReadFence has no epoch field" in error


def test_fragment_message_outside_the_ring_union_is_caught(tmp_path):
    """A fragment message dropped from ``RingMessage`` — it would skip
    the epoch guard and the server's ring dispatch — fails the codec
    import; ``test_fragment_class_outside_ring_union_flagged`` pins
    every fragment message in the union."""
    error = _import_codec_after(tmp_path, ("    FragmentReply,\n]", "]"))
    assert "one row per message class: FragmentReply" in error
