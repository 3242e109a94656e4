"""The pending write set (pseudocode line 13) with O(1) bookkeeping.

The server asks the pending set two questions on the per-message path:
``maxlex(pending_write_set)`` (pseudocode lines 22 and 80 — every read
that finds a write in progress) and "which *other* tags carry this
operation?" (the zombie sweep after every commit).  Answered by scanning,
both cost a pass over the whole set per message; :class:`PendingSet`
keeps the maximum and an ``op -> tags`` index beside the entries so
neither is ever a scan.

It is a ``dict`` subclass on purpose: lookups, membership, length,
iteration and equality are the dict's own C implementations — only the
mutators are intercepted, and *every* mutator is (the ones the protocol
does not use are refused rather than left to bypass the index).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.messages import OpId, PendingEntry
from repro.core.tags import Tag, max_tag


class PendingSet(dict):  # dict[Tag, PendingEntry]
    """``tag -> PendingEntry`` in insertion order, plus the tracked
    maximum tag and the tags pending per operation."""

    __slots__ = ("_max", "_by_op")

    def __init__(self, entries: Iterable[PendingEntry] = ()) -> None:
        super().__init__()
        #: Largest key, or ``None`` after the maximum was removed (the
        #: next :meth:`maxlex` recomputes it).  Commits remove old tags,
        #: so the recompute is rare.
        self._max: Optional[Tag] = Tag.ZERO
        #: op -> its pending tags, in the order they entered the set.
        self._by_op: dict[OpId, list[Tag]] = {}
        for entry in entries:
            self[entry.tag] = entry

    def maxlex(self) -> Tag:
        """Largest pending tag; ``Tag.ZERO`` when empty."""
        top = self._max
        if top is None:
            top = self._max = max_tag(self)
        return top

    def tags_of(self, op: OpId) -> tuple[Tag, ...]:
        """The pending tags carrying ``op``, oldest entry first (more
        than one only after duplicate initiations of one operation)."""
        return tuple(self._by_op.get(op, ()))

    def __setitem__(self, tag: Tag, entry: PendingEntry) -> None:
        old = self.get(tag)
        if old is not None:
            if old.op == entry.op:
                dict.__setitem__(self, tag, entry)
                return
            del self[tag]
        dict.__setitem__(self, tag, entry)
        tags = self._by_op.get(entry.op)
        if tags is None:
            self._by_op[entry.op] = [tag]
        else:
            tags.append(tag)
        top = self._max
        if top is not None and tag > top:
            self._max = tag

    def pop(self, tag: Tag, *default):
        if tag not in self:
            if default:
                return default[0]
            raise KeyError(tag)
        entry = dict.pop(self, tag)
        tags = self._by_op[entry.op]
        if len(tags) == 1:
            del self._by_op[entry.op]
        else:
            tags.remove(tag)
        if tag == self._max:
            self._max = None
        return entry

    def __delitem__(self, tag: Tag) -> None:
        self.pop(tag)

    def setdefault(self, tag: Tag, entry: PendingEntry) -> PendingEntry:
        if tag not in self:
            self[tag] = entry
        return self[tag]

    def clear(self) -> None:
        dict.clear(self)
        self._by_op.clear()
        self._max = Tag.ZERO

    def _refused(self, *args, **kwargs):
        raise TypeError("PendingSet: use item assignment, pop, setdefault or clear")

    update = popitem = __ior__ = _refused
