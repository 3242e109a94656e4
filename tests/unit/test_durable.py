"""Durable snapshot round trips: stores, serialisation, protocol state.

The crash-recovery contract: a server restored from its snapshot has
*identical* protocol state for everything the snapshot covers — the
committed register, ts_seen, watermarks, completed operations and the
pending set — so no acknowledged operation is forgotten across a crash.
"""

import pytest

from repro.core.durable import (
    SNAPSHOT_VERSION,
    FileSnapshotStore,
    MemorySnapshotStore,
    ServerSnapshot,
)
from repro.core.messages import (
    ClientRead,
    ClientWrite,
    Commit,
    OpId,
    PendingEntry,
    PreWrite,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag
from repro.errors import ProtocolError


def sample_snapshot() -> ServerSnapshot:
    return ServerSnapshot(
        server_id=1,
        members=(0, 1, 2, 3),
        dead=(2,),
        tag=Tag(7, 1),
        value=b"\x00committed\xff",
        ts_seen=9,
        watermark={0: 4, 1: 7},
        completed_ops={10: 3, 11: 0},
        pending=(
            PendingEntry(Tag(8, 0), b"in-flight", OpId(10, 4)),
            PendingEntry(Tag(9, 3), b"", OpId(12, 0)),
        ),
        reconfig_counter=5,
        completed_tags={10: Tag(7, 1)},
    )


#: ``sample_snapshot().to_json()`` as the commit before the mapping-typed
#: fields emitted it: the on-disk format did not move.
GOLDEN_JSON = (
    '{"version": 3, "server_id": 1, "members": [0, 1, 2, 3], "dead": [2], '
    '"tag": [7, 1], "value": "AGNvbW1pdHRlZP8=", "ts_seen": 9, '
    '"watermark": [[0, 4], [1, 7]], "completed_ops": [[10, 3], [11, 0]], '
    '"pending": [{"tag": [8, 0], "value": "aW4tZmxpZ2h0", "op": [10, 4]}, '
    '{"tag": [9, 3], "value": "", "op": [12, 0]}], "reconfig_counter": 5, '
    '"epoch": 0, "completed_tags": [[10, 7, 1]], "frag_tag": null}'
)


def test_to_json_bytes_are_the_ones_older_builds_wrote():
    assert sample_snapshot().to_json() == GOLDEN_JSON
    assert ServerSnapshot.from_json(GOLDEN_JSON) == sample_snapshot()
    v2 = GOLDEN_JSON.replace('"version": 3', '"version": 2').replace(
        ', "frag_tag": null', ""
    )
    assert ServerSnapshot.from_json(v2) == sample_snapshot()


def test_loaded_tables_are_read_only_mappings():
    loaded = ServerSnapshot.from_json(GOLDEN_JSON)
    for table in (loaded.watermark, loaded.completed_ops, loaded.completed_tags):
        with pytest.raises(TypeError):
            table[99] = 1
    assert loaded.completed_tags[10] == Tag(7, 1)


def test_json_round_trip_is_identity():
    snapshot = sample_snapshot()
    assert ServerSnapshot.from_json(snapshot.to_json()) == snapshot


def test_json_round_trip_preserves_frag_tag():
    snapshot = ServerSnapshot(
        server_id=2, members=(0, 1, 2, 3), dead=(), tag=Tag(9, 1),
        value=b"\x01fragment", ts_seen=9, watermark={}, completed_ops={},
        pending=(), frag_tag=Tag(6, 0),
    )
    restored = ServerSnapshot.from_json(snapshot.to_json())
    assert restored == snapshot
    assert restored.frag_tag == Tag(6, 0)


def test_v2_document_loads_with_frag_tag_none():
    """A pre-coding (v2) snapshot still loads; its value is a whole
    replicated value, so ``frag_tag`` defaults to ``None``."""
    import json

    data = json.loads(sample_snapshot().to_json())
    data["version"] = 2
    del data["frag_tag"]
    restored = ServerSnapshot.from_json(json.dumps(data))
    assert restored == sample_snapshot()
    assert restored.frag_tag is None


def test_from_json_rejects_garbage_and_wrong_version():
    with pytest.raises(ProtocolError):
        ServerSnapshot.from_json("{}")
    document = sample_snapshot().to_json().replace(
        f'"version": {SNAPSHOT_VERSION}', '"version": 99'
    )
    with pytest.raises(ProtocolError, match="version"):
        ServerSnapshot.from_json(document)


def test_memory_store_round_trip_latest_wins():
    store = MemorySnapshotStore()
    assert store.load() is None
    first = sample_snapshot()
    store.save(first)
    second = ServerSnapshot(
        server_id=1, members=(0, 1), dead=(), tag=Tag(8, 0), value=b"newer",
        ts_seen=8, watermark={}, completed_ops={}, pending=(),
    )
    store.save(second)
    assert store.load() == second
    assert store.saves == 2


def test_file_store_round_trip_and_atomic_overwrite(tmp_path):
    path = str(tmp_path / "s1.snapshot")
    store = FileSnapshotStore(path)
    assert store.load() is None
    store.save(sample_snapshot())
    assert store.load() == sample_snapshot()
    # A second save atomically replaces the first (no .tmp residue).
    newer = ServerSnapshot(
        server_id=1, members=(0, 1, 2, 3), dead=(), tag=Tag(9, 1), value=b"v2",
        ts_seen=9, watermark={}, completed_ops={}, pending=(),
    )
    store.save(newer)
    assert store.load() == newer
    assert not (tmp_path / "s1.snapshot.tmp").exists()
    # A fresh store handle over the same path sees the persisted state.
    assert FileSnapshotStore(path).load() == newer


def test_file_store_fsync_also_syncs_directory(tmp_path, monkeypatch):
    """With ``fsync=True`` the rename must be made durable too: the
    directory containing the snapshot gets its own fsync, or power loss
    after ``save`` returns could roll back to the previous snapshot."""
    import os
    import stat

    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    store = FileSnapshotStore(str(tmp_path / "s1.snapshot"), fsync=True)
    store.save(sample_snapshot())
    assert True in synced, "parent directory was never fsynced"
    assert False in synced, "snapshot file itself was never fsynced"

    # Without fsync=True neither sync happens (rename atomicity only).
    synced.clear()
    FileSnapshotStore(str(tmp_path / "s2.snapshot")).save(sample_snapshot())
    assert synced == []


def test_file_store_load_discards_orphaned_tmp(tmp_path):
    """A ``.tmp`` left by a crash between write and rename is removed on
    the next load and never shadows or corrupts the real snapshot."""
    path = tmp_path / "s1.snapshot"
    store = FileSnapshotStore(str(path))
    store.save(sample_snapshot())
    orphan = tmp_path / "s1.snapshot.tmp"
    orphan.write_text("torn{{{garbage")
    assert store.load() == sample_snapshot()
    assert not orphan.exists()

    # An orphan with no real snapshot behind it: load reports "nothing
    # saved" and reclaims the directory entry.
    lone = FileSnapshotStore(str(tmp_path / "fresh.snapshot"))
    (tmp_path / "fresh.snapshot.tmp").write_text("torn")
    assert lone.load() is None
    assert not (tmp_path / "fresh.snapshot.tmp").exists()


# ----------------------------------------------------------------------
# Protocol snapshot/restore: write -> crash -> reload -> identical state.
# ----------------------------------------------------------------------


def build_server_with_state() -> tuple[ServerProtocol, MemorySnapshotStore]:
    store = MemorySnapshotStore()
    proto = ServerProtocol(1, RingView.initial(3), durable=store)
    # A committed write from another origin (forward, then commit).
    proto.on_ring_message(PreWrite(Tag(3, 0), b"committed-upstream", OpId(50, 0)))
    while proto.has_ring_work:
        if proto.next_ring_message() is None:
            break
    proto.on_ring_message(Commit((Tag(3, 0),)))
    # An in-flight local initiation (stays pending).
    proto.on_client_message(60, ClientWrite(OpId(60, 0), b"still-pending"))
    while proto.has_ring_work:
        if proto.next_ring_message() is None:
            break
    return proto, store


def test_write_crash_reload_restores_identical_protocol_state():
    proto, store = build_server_with_state()
    snapshot = store.load()
    assert snapshot is not None, "commit points must have persisted"
    # "Crash": the protocol object is discarded; only the store survives.
    restored = ServerProtocol.restore(1, (0, 1, 2), store.load(), durable=store)
    assert restored.value == proto.value
    assert restored.tag == proto.tag
    assert restored.ts_seen == proto.ts_seen
    assert restored.watermark == proto.watermark
    assert restored.completed_ops == proto.completed_ops
    assert restored.pending == proto.pending
    assert restored.op_index == proto.op_index
    assert restored._reconfig_counter == proto._reconfig_counter
    # A restored (non-alone) server is rejoining: paused, deferring
    # reads, announcing itself.
    assert restored.rejoining and restored.paused


def test_snapshot_is_write_ahead_of_replies():
    """The snapshot covering a commit exists before the ack is handed to
    the runtime, so an acknowledged write can never be forgotten."""
    store = MemorySnapshotStore()
    proto = ServerProtocol(0, RingView(members=(0,)), durable=store)
    replies = proto.on_client_message(9, ClientWrite(OpId(9, 0), b"acked"))
    assert replies, "the single-survivor fast path acks immediately"
    snapshot = store.load()
    assert snapshot is not None
    assert snapshot.value == b"acked"
    assert snapshot.completed_ops.get(9) == 0


def test_restore_without_snapshot_starts_fresh_but_rejoining():
    restored = ServerProtocol.restore(2, (0, 1, 2), None)
    assert restored.tag == Tag.ZERO
    assert restored.rejoining and restored.paused
    # Exactly the initial state, which the write-ahead check compares a
    # server that never saved against (tests/integration/test_write_ahead.py).
    for value in (b"", b"seeded"):
        fresh = ServerProtocol(2, RingView.initial(3), initial_value=value)
        rebuilt = ServerProtocol.restore(2, (0, 1, 2), None, initial_value=value)
        assert rebuilt.snapshot() == fresh.snapshot()


def test_restore_alone_resolves_recovered_pending_writes():
    store = MemorySnapshotStore()
    snapshot = ServerSnapshot(
        server_id=0,
        members=(0, 1, 2),
        dead=(),
        tag=Tag(2, 1),
        value=b"old",
        ts_seen=4,
        watermark={1: 2},
        completed_ops={},
        pending=(PendingEntry(Tag(4, 2), b"orphaned", OpId(70, 0)),),
    )
    restored = ServerProtocol.restore(
        0, (0, 1, 2), snapshot, durable=store, alone=True
    )
    # The sole survivor resolves the orphaned pre-write locally: it is
    # installed (its tag outbids the committed one) and not pending.
    assert not restored.rejoining and not restored.paused
    assert restored.alone
    assert restored.pending == {}
    assert restored.value == b"orphaned"
    assert restored.completed_ops.get(70) == 0


def test_resuming_alone_saves_the_new_view_before_serving():
    """A rejoiner with nothing pending that resumes alone installs a new
    view — epoch up, every peer dead; the snapshot must hold that view
    before the first reply leaves, or a restart would come back in the
    view it left."""
    store = MemorySnapshotStore()
    restored = ServerProtocol.restore(0, (0, 1, 2), None, durable=store)
    saves = store.saves
    restored.complete_rejoin_alone()
    assert restored.on_client_message(9, ClientRead(OpId(9, 0))), "served at once"
    saved = store.load()
    assert (saved.epoch, saved.dead) == (1, (1, 2))
    assert saved == restored.snapshot()
    assert store.saves == saves + 1


# ----------------------------------------------------------------------
# snapshot() copies the dedup tables: isolated, and cheap.
# ----------------------------------------------------------------------


def test_snapshot_is_isolated_from_later_mutation():
    proto, store = build_server_with_state()
    saved = proto.snapshot()
    store.save(saved)
    before = (dict(saved.watermark), dict(saved.completed_ops), dict(saved.completed_tags))
    assert before[0], "the fixture must have committed something"
    proto.watermark[0] = 99
    proto.watermark[7] = 1
    proto.completed_ops[50] = 41
    proto.completed_ops[123] = 5
    proto.completed_tags[123] = Tag(9, 9)
    proto.completed_tags.pop(50, None)
    assert (saved.watermark, saved.completed_ops, saved.completed_tags) == before
    for table in (saved.watermark, saved.completed_ops, saved.completed_tags):
        with pytest.raises(TypeError):
            table[1] = 1
    # A restart from the saved snapshot never sees the later mutation.
    restored = ServerProtocol.restore(1, (0, 1, 2), store.load(), durable=store)
    assert (restored.watermark, restored.completed_ops, restored.completed_tags) == before
    # ... and owns private dicts again: mutating them leaves the store alone.
    restored.completed_ops[777] = 1
    assert 777 not in store.load().completed_ops


def test_snapshot_allocates_nothing_per_client():
    """One ``snapshot()`` costs a fixed number of allocator blocks however
    many clients ever wrote (tuples of pairs cost two per client per
    table: > 8,000 here)."""
    import gc
    import sys

    proto = ServerProtocol(0, RingView.initial(3))
    for client in range(4096):
        proto.completed_ops[client] = client % 7
        proto.completed_tags[client] = Tag(client + 1, client % 3)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        saved = proto.snapshot()
        allocated = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert len(saved.completed_ops) == len(saved.completed_tags) == 4096
    assert allocated < 100, allocated
