"""Unit tests for the (ts, server_id) tag order, and for ``Tag`` and
``OpId`` being the plain tuples the write path's dicts key on."""

import pytest

from repro.core.durable import (
    FileSnapshotStore,
    MemorySnapshotStore,
    ServerSnapshot,
)
from repro.core.messages import OpId, PendingEntry, PreWrite, WriteAck
from repro.core.tags import Tag, max_tag
from repro.transport.codec import decode_message, encode_message


def test_lexicographic_order_ts_dominates():
    assert Tag(1, 5) < Tag(2, 0)
    assert Tag(2, 0) > Tag(1, 5)


def test_lexicographic_order_id_breaks_ties():
    assert Tag(3, 1) < Tag(3, 2)
    assert not Tag(3, 2) < Tag(3, 1)


def test_zero_is_smallest():
    assert Tag.ZERO < Tag(1, 0)
    assert Tag.ZERO < Tag(0, 0)  # server ids are >= 0


def test_equality_and_hash():
    assert Tag(4, 2) == Tag(4, 2)
    assert hash(Tag(4, 2)) == hash(Tag(4, 2))
    assert Tag(4, 2) != Tag(4, 3)


def test_next_for_increments_ts_and_stamps_id():
    tag = Tag(7, 3).next_for(1)
    assert tag == Tag(8, 1)
    assert tag > Tag(7, 3)


def test_max_tag_empty_is_zero():
    assert max_tag([]) is Tag.ZERO


def test_max_tag_picks_lexicographic_maximum():
    tags = [Tag(2, 1), Tag(3, 0), Tag(2, 9)]
    assert max_tag(tags) == Tag(3, 0)


def test_ge_and_le_follow_the_tuple_order():
    assert Tag(1, 1) <= Tag(1, 1)
    assert Tag(2, 1) >= Tag(1, 9)


def test_comparison_with_non_tag_raises():
    with pytest.raises(TypeError):
        _ = Tag(1, 1) < 5


# -- Tag and OpId are tuples ---------------------------------------------


def test_tag_and_op_id_are_their_tuples():
    tag, op = Tag(7, 3), OpId(41, 9)
    assert tag == (7, 3) and op == (41, 9)
    assert (tag.ts, tag.server_id) == (7, 3) and (op.client, op.seq) == (41, 9)
    assert Tag(ts=7, server_id=3) == tag and OpId(client=41, seq=9) == op
    # Hashing is the tuple's: dict and set iteration order — and with
    # it every seeded trace — is what it was with the frozen dataclass.
    assert hash(tag) == hash((7, 3)) and hash(op) == hash((41, 9))
    assert {tag: "x"}[(7, 3)] == "x"


def test_reprs_are_the_compact_forms_traces_print():
    assert repr(Tag(7, 3)) == "Tag(7,3)"
    assert repr(Tag.ZERO) == "Tag(0,-1)"
    assert repr(OpId(41, 9)) == "Op(41.9)"
    assert str(Tag(7, 3)) == "Tag(7,3)"


def test_tags_are_immutable_and_carry_no_instance_dict():
    tag = Tag(1, 2)
    with pytest.raises(AttributeError):
        tag.ts = 5
    with pytest.raises(AttributeError):
        tag.extra = 1
    assert type(tag.next_for(0)) is Tag
    assert type(Tag.ZERO) is Tag and Tag.ZERO == (0, -1)


def test_builtin_max_min_sorted_are_maxlex():
    tags = [Tag(2, 1), Tag(3, 0), Tag(2, 9), Tag(3, 0)]
    assert max(tags) == Tag(3, 0) == max_tag(iter(tags))
    assert min(tags) == Tag(2, 1)
    assert sorted(set(tags)) == [Tag(2, 1), Tag(2, 9), Tag(3, 0)]
    assert max_tag({Tag(1, 1): None, Tag(1, 2): None}) == Tag(1, 2)


def test_codec_round_trip_rebuilds_tags_and_op_ids():
    message = PreWrite(Tag(2**40, 7), b"v", OpId(2**33, 5), (Tag(1, 0), Tag(1, 1)))
    decoded = decode_message(encode_message(message))
    assert decoded == message
    assert type(decoded.tag) is Tag and type(decoded.op) is OpId
    assert all(type(tag) is Tag for tag in decoded.commits)
    ack = decode_message(encode_message(WriteAck(OpId(3, 4), Tag(9, 2))))
    assert type(ack.tag) is Tag and type(ack.op) is OpId


def _snapshot() -> ServerSnapshot:
    return ServerSnapshot(
        server_id=1,
        members=(0, 1, 2),
        dead=(2,),
        tag=Tag(5, 0),
        value=b"committed",
        ts_seen=8,
        watermark={0: 5, 1: 4},
        completed_ops={60: 3},
        pending=(
            PendingEntry(Tag(6, 1), b"a", OpId(60, 4)),
            PendingEntry(Tag(8, 0), b"b", OpId(61, 0)),
        ),
        epoch=2,
        completed_tags={60: Tag(5, 0)},
        frag_tag=Tag(4, 2),
    )


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_snapshot_round_trip_rebuilds_tags_and_op_ids(backend, tmp_path):
    store = (
        MemorySnapshotStore() if backend == "memory"
        else FileSnapshotStore(str(tmp_path / "s1.snapshot"))
    )
    snapshot = _snapshot()
    store.save(snapshot)
    loaded = store.load()
    assert loaded == snapshot
    assert type(loaded.tag) is Tag and type(loaded.frag_tag) is Tag
    for entry in loaded.pending:
        assert type(entry.tag) is Tag and type(entry.op) is OpId
    assert all(type(tag) is Tag for tag in loaded.completed_tags.values())
