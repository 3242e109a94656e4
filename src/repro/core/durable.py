"""Durable server state: write-ahead snapshots for crash recovery.

The paper's crash model is crash-*stop*: a crashed server never returns,
so the ring can only shrink.  Recovery-capable variants of
message-passing atomic storage (coded atomic memory and its
storage-optimised successors) instead let a replica restart from its
persisted state and *catch up* before it serves reads again.  This
module supplies the persistence half of that model:

* :class:`ServerSnapshot` — an immutable, self-contained copy of
  everything a :class:`~repro.core.server.ServerProtocol` must not lose
  across a crash: the committed register (``value``/``tag``), the
  highest timestamp ever observed (``ts_seen``, which keeps post-restart
  initiations above every tag the server ever touched), the per-origin
  commit watermark, the per-client completed-operation watermark, the
  pending write set, and the reconfiguration nonce counter (so a
  restarted coordinator can never reuse a nonce and have its fresh token
  dropped as an orphan).
* :class:`SnapshotStore` — the persistence interface, with two
  backends: :class:`MemorySnapshotStore` for the simulator (a crash
  erases the process, not the store) and :class:`FileSnapshotStore` for
  the asyncio runtime (atomic write-to-temp + rename, so a crash during
  ``save`` leaves the previous snapshot intact).

Snapshots are *write-ahead* with respect to acknowledgements: the server
persists before its replies are handed to the runtime, so any write or
read a client observed as complete is covered by the snapshot a restart
reloads.  What is deliberately *not* persisted: the forward queue
(queued pre-writes live in their sender's pending set and are
redistributed by the rejoin merge) and the reliable-session state (a
restart is a new channel; sequence numbers restart from scratch on both
ends, exactly like a TCP connection).
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from repro.core.messages import OpId, PendingEntry
from repro.core.tags import Tag
from repro.errors import ProtocolError

#: Snapshot format version, checked on load so a stale on-disk snapshot
#: from an incompatible build fails loudly instead of corrupting state.
#: v2 added ``completed_tags`` (the commit tag behind each client's
#: completed-op watermark, so a restarted server's dedup acks stay
#: tag-covered).  v3 added ``frag_tag`` for the coded value backend (the
#: tag the persisted fragment belongs to, which can lag ``tag`` after a
#: merge installed a tag whose fragment the server never held); v2
#: documents still load — their ``value`` is a whole replicated value,
#: so ``frag_tag`` defaults to ``tag``.
SNAPSHOT_VERSION = 3

#: Oldest snapshot version ``from_json`` still accepts.
_OLDEST_READABLE_VERSION = 2


@dataclass(frozen=True)
class ServerSnapshot:
    """Everything a server must reload to rejoin without forgetting."""

    server_id: int
    members: tuple[int, ...]
    dead: tuple[int, ...]
    tag: Tag
    value: bytes
    ts_seen: int
    #: The three dedup tables are read-only mappings over a private
    #: ``dict.copy()`` — one C-level copy per table per snapshot, not a
    #: pair allocated per client that ever wrote.
    watermark: Mapping[int, int]        # origin -> max committed ts
    completed_ops: Mapping[int, int]    # client -> max committed seq
    pending: tuple[PendingEntry, ...]
    reconfig_counter: int = 0
    #: Installed view epoch.  Persisted so a restarted server rejoins
    #: claiming the epoch it actually had — the epoch guard then rejects
    #: any stale traffic of its previous incarnation, and its sponsor's
    #: fold-in token (strictly higher epoch) is the only way back in.
    epoch: int = 0
    #: Commit tag behind each client's max completed seq (when known):
    #: lets a restarted server ack a deduplicated retry with the real
    #: committed tag instead of an untagged (coverage-breaking) ack.
    completed_tags: Mapping[int, Tag] = field(default_factory=dict)
    #: Coded backend (v3): the tag the persisted ``value`` fragment
    #: belongs to.  ``None`` means "``value`` matches ``tag``" — true
    #: for every replicated snapshot and for coded servers whose
    #: fragment is current.  A coded merge can advance ``tag`` past the
    #: fragment the server holds; persisting the lag keeps a restarted
    #: server from serving a stale fragment as if it were current.
    frag_tag: Optional[Tag] = None

    def to_json(self) -> str:
        """Serialise to a JSON document (the file backend's format)."""
        return json.dumps(
            {
                "version": SNAPSHOT_VERSION,
                "server_id": self.server_id,
                "members": list(self.members),
                "dead": list(self.dead),
                "tag": [self.tag.ts, self.tag.server_id],
                "value": base64.b64encode(self.value).decode("ascii"),
                "ts_seen": self.ts_seen,
                "watermark": [list(item) for item in self.watermark.items()],
                "completed_ops": [list(item) for item in self.completed_ops.items()],
                "pending": [
                    {
                        "tag": [entry.tag.ts, entry.tag.server_id],
                        "value": base64.b64encode(entry.value).decode("ascii"),
                        "op": [entry.op.client, entry.op.seq],
                    }
                    for entry in self.pending
                ],
                "reconfig_counter": self.reconfig_counter,
                "epoch": self.epoch,
                "completed_tags": [
                    [client, tag.ts, tag.server_id]
                    for client, tag in self.completed_tags.items()
                ],
                "frag_tag": (
                    [self.frag_tag.ts, self.frag_tag.server_id]
                    if self.frag_tag is not None
                    else None
                ),
            }
        )

    @staticmethod
    def from_json(document: str) -> "ServerSnapshot":
        """Inverse of :meth:`to_json`; raises on malformed documents."""
        try:
            data = json.loads(document)
            if not _OLDEST_READABLE_VERSION <= data["version"] <= SNAPSHOT_VERSION:
                raise ProtocolError(
                    f"snapshot version {data['version']} unsupported "
                    f"(readable: {_OLDEST_READABLE_VERSION}..{SNAPSHOT_VERSION})"
                )
            frag_tag = data.get("frag_tag")
            return ServerSnapshot(
                server_id=data["server_id"],
                members=tuple(data["members"]),
                dead=tuple(data["dead"]),
                tag=Tag(*data["tag"]),
                value=base64.b64decode(data["value"]),
                ts_seen=data["ts_seen"],
                watermark=MappingProxyType(dict(data["watermark"])),
                completed_ops=MappingProxyType(dict(data["completed_ops"])),
                pending=tuple(
                    PendingEntry(
                        Tag(*entry["tag"]),
                        base64.b64decode(entry["value"]),
                        OpId(*entry["op"]),
                    )
                    for entry in data["pending"]
                ),
                reconfig_counter=data.get("reconfig_counter", 0),
                epoch=data.get("epoch", 0),
                completed_tags=MappingProxyType(
                    {c: Tag(ts, sid) for c, ts, sid in data.get("completed_tags", [])}
                ),
                frag_tag=Tag(*frag_tag) if frag_tag is not None else None,
            )
        except ProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed snapshot: {exc}") from exc


class SnapshotStore:
    """Persistence interface for one server's durable snapshot."""

    def save(self, snapshot: ServerSnapshot) -> None:
        raise NotImplementedError

    def load(self) -> Optional[ServerSnapshot]:
        """The last saved snapshot, or ``None`` when nothing was saved."""
        raise NotImplementedError


class MemorySnapshotStore(SnapshotStore):
    """Simulator backend: the store outlives the simulated process.

    A simulated crash destroys the process's volatile state (the
    :class:`~repro.core.server.ServerProtocol` object is discarded); the
    store, held by the cluster, plays the role of the disk.
    """

    def __init__(self) -> None:
        self._snapshot: Optional[ServerSnapshot] = None
        #: Number of saves, asserted on by durability tests.
        self.saves = 0

    def save(self, snapshot: ServerSnapshot) -> None:
        self._snapshot = snapshot
        self.saves += 1

    def load(self) -> Optional[ServerSnapshot]:
        return self._snapshot


class FileSnapshotStore(SnapshotStore):
    """Asyncio-runtime backend: one JSON file, replaced atomically.

    ``save`` writes to ``<path>.tmp`` and renames it over the target, so
    a crash mid-save can never leave a torn snapshot — the previous
    complete snapshot survives.  Saves run synchronously inside protocol
    handlers (the write-ahead guarantee requires the snapshot on disk
    before a reply leaves), so by default they rely on rename atomicity
    alone: fully durable against *process* crashes — this repo's
    recovery model — at microseconds per save.  Pass ``fsync=True`` to
    also survive power loss, at the cost of a synchronous disk flush per
    dirty protocol step; on the asyncio event loop that stalls every
    connection of the node for each sync, so it belongs behind a
    battery-backed or NVMe-fast write path.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self.saves = 0

    def save(self, snapshot: ServerSnapshot) -> None:
        # An orphaned .tmp from a crash mid-save is overwritten here
        # (open "w" truncates) and replaced or re-orphaned atomically —
        # it can never be *loaded*, only waste a directory entry, which
        # load() also reclaims.
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="ascii") as handle:
            handle.write(snapshot.to_json())
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        if self.fsync:
            # The rename itself lives in the directory entry: without a
            # directory fsync, power loss after save() returns can roll
            # the file back to the *previous* snapshot — exactly the
            # forgotten-acknowledgement the write-ahead contract forbids.
            self._fsync_directory()
        self.saves += 1

    def load(self) -> Optional[ServerSnapshot]:
        self._discard_orphan_tmp()
        try:
            with open(self.path, "r", encoding="ascii") as handle:
                return ServerSnapshot.from_json(handle.read())
        except FileNotFoundError:
            return None

    def _fsync_directory(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _discard_orphan_tmp(self) -> None:
        """Remove a ``.tmp`` left behind by a crash between the write
        and the rename; the real snapshot (if any) is untouched."""
        try:
            os.remove(self.path + ".tmp")
        except FileNotFoundError:
            pass
