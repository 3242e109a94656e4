"""Logical timestamps ("tags") for ordering written values.

The paper orders values by a pair ``[ts, id]`` compared lexicographically:
first by the integer timestamp, then by the writing server's identifier to
break ties.  Because a write contacts *all* servers, a server initiating a
write needs no communication to pick a fresh tag: it increments the
largest timestamp it has seen locally (pseudocode line 23), which keeps
timestamps monotonic across the whole execution.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, NamedTuple


class _TagFields(NamedTuple):
    ts: int
    server_id: int


# Two classes because ``NamedTuple`` turns every annotation in its body
# into a field, and ``ZERO`` is a class constant, not a third field.
class Tag(_TagFields):
    """A lexicographically ordered (timestamp, server id) pair.

    ``server_id`` is the *index* of the originating server in the initial
    ring, which doubles as the tie-breaker.  ``Tag.ZERO`` (ts=0, id=-1) is
    smaller than every tag any server can generate.

    A tag *is* the tuple ``(ts, server_id)``: ordering, equality and
    hashing are the tuple's own, done by the interpreter in C, so
    ``max`` over tags is the pseudocode's ``maxlex`` as a primitive.
    """

    __slots__ = ()

    ZERO: ClassVar["Tag"]  # set below

    def next_for(self, server_id: int) -> "Tag":
        """The tag a write initiated by ``server_id`` after seeing ``self``
        would carry (pseudocode line 23: ``[max(...) + 1, i]``)."""
        return Tag(self.ts + 1, server_id)

    def __repr__(self) -> str:
        return f"Tag({self.ts},{self.server_id})"


# A sentinel smaller than any generated tag (generated tags have ts >= 1
# and server_id >= 0).
Tag.ZERO = Tag(0, -1)


def max_tag(tags: Iterable[Tag]) -> Tag:
    """Largest tag in ``tags``; ``Tag.ZERO`` when empty.

    Mirrors the pseudocode's ``maxlex(pending_write_set)`` which is used
    both when initiating a write (line 22) and when a read must wait
    (line 80).
    """
    return max(tags, default=Tag.ZERO)
