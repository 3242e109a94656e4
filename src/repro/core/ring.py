"""Ring membership views.

A :class:`RingView` is an immutable snapshot of the ring: the initial
member order plus the set of members known to have crashed.  Successor and
predecessor walk the *initial* order, skipping dead members — exactly the
paper's splice rule (``pnext = pj+1`` on the crash of ``pj``, line 87).

The view also defines the **adopter** of a dead server: its closest alive
predecessor.  The adopter terminates ring messages originated by the dead
server and answers for its orphaned in-flight writes during
reconfiguration.  Because "closest alive predecessor" is computed from the
monotonically growing dead set, adoptership can only transfer *towards*
the crash detector and two alive servers never simultaneously consider
themselves adopters of the same dead server.

Every view additionally carries an **epoch**: a monotonically increasing
counter that totally orders the views one server moves through.  Each
membership change — shrinking *or* growing — produces a strictly larger
epoch, so unlike the historic ``len(dead)`` rule the epoch never repeats
once crash recovery re-grows the ring.  Under the imperfect failure
detector the epoch is the safety anchor: reconfiguration tokens and
commits are epoch-stamped, data traffic is rejected across epochs, and a
view transition is installed only by a commit whose token gathered an
ack quorum of the previous view (see :mod:`repro.core.server`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RingView:
    """Immutable ring membership snapshot.

    ``epoch`` defaults to ``len(dead)`` when not given, which preserves
    the historic value for directly-constructed views; views derived
    through :meth:`without`, :meth:`with_dead`, :meth:`revived` and
    :meth:`revive_all` instead *increment* the parent's epoch, so epochs
    stay strictly monotone along any one server's view history even when
    recovery re-grows the ring.
    """

    members: tuple[int, ...]
    dead: frozenset[int] = field(default_factory=frozenset)
    epoch: int = -1
    # Derived once per (immutable) view: the alive set and every member's
    # next/previous alive member.  ``successor`` is read for every ring
    # message pulled, so it must not walk the ring each time.
    _alive: frozenset[int] = field(init=False, repr=False, compare=False)
    _next: dict[int, int] = field(init=False, repr=False, compare=False)
    _prev: dict[int, int] = field(init=False, repr=False, compare=False)

    @staticmethod
    def initial(num_servers: int) -> "RingView":
        """The starting view: servers ``0 .. num_servers-1``, none dead."""
        if num_servers < 1:
            raise ConfigurationError("a ring needs at least one server")
        return RingView(tuple(range(num_servers)))

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ConfigurationError(f"duplicate ring members: {self.members}")
        unknown = self.dead - set(self.members)
        if unknown:
            raise ConfigurationError(f"dead ids not in ring: {sorted(unknown)}")
        alive = self.alive()
        if not alive:
            raise ConfigurationError("a ring view must contain at least one alive server")
        if self.epoch < 0:
            object.__setattr__(self, "epoch", len(self.dead))
        object.__setattr__(self, "_alive", frozenset(alive))
        object.__setattr__(self, "_next", self._neighbours(self.members[::-1], alive[0]))
        object.__setattr__(self, "_prev", self._neighbours(self.members, alive[-1]))

    def _neighbours(self, order: tuple[int, ...], nearest: int) -> dict[int, int]:
        """For each member, the closest alive member *behind* it in
        ``order`` (wrapping); ``nearest`` is that member for ``order[0]``."""
        out = {}
        for member in order:
            out[member] = nearest
            if member not in self.dead:
                nearest = member
        return out

    def alive(self) -> list[int]:
        """Alive members in initial ring order."""
        return [m for m in self.members if m not in self.dead]

    @property
    def num_alive(self) -> int:
        return len(self.members) - len(self.dead)

    @property
    def quorum(self) -> int:
        """Majority of this view's alive members.

        Installing a successor view requires acks from at least this
        many members of *this* view; two disjoint alive sets cannot both
        reach it, which is what keeps a partitioned minority from
        installing a competing view (see docs/reconfiguration.md).
        """
        return self.num_alive // 2 + 1

    def is_alive(self, server_id: int) -> bool:
        return server_id in self._alive

    def successor(self, of: int) -> int:
        """Next alive server after ``of`` in ring order (may be ``of``
        itself when it is the only survivor)."""
        try:
            return self._next[of]
        except KeyError:
            raise ConfigurationError(f"unknown server {of}") from None

    def predecessor(self, of: int) -> int:
        """Previous alive server before ``of`` in ring order."""
        try:
            return self._prev[of]
        except KeyError:
            raise ConfigurationError(f"unknown server {of}") from None

    def adopter(self, dead_id: int) -> int:
        """The alive server responsible for a dead server's orphaned
        messages: its closest alive predecessor."""
        if dead_id not in self.dead:
            raise ConfigurationError(f"server {dead_id} is not dead in this view")
        return self._prev[dead_id]

    def without(self, dead_id: int) -> "RingView":
        """A new view with ``dead_id`` marked crashed."""
        if dead_id not in set(self.members):
            raise ConfigurationError(f"unknown server {dead_id}")
        return RingView(self.members, self.dead | {dead_id}, self.epoch + 1)

    def with_dead(self, dead_ids) -> "RingView":
        """A new view with every id in ``dead_ids`` marked crashed."""
        dead = self.dead | frozenset(dead_ids)
        if dead == self.dead:
            return self
        return RingView(self.members, dead, self.epoch + 1)

    def at_epoch(self, epoch: int, dead=None) -> "RingView":
        """The same membership at an explicitly installed ``epoch``.

        Used when adopting a reconfiguration commit wholesale: the
        commit's dead set *replaces* the local one (a stale receiver's
        private suspicions must not survive adoption) and the commit's
        epoch becomes the view's.
        """
        new_dead = self.dead if dead is None else frozenset(dead)
        if new_dead == self.dead and epoch == self.epoch:
            return self
        return RingView(self.members, new_dead, epoch)

    def revived(self, server_id: int) -> "RingView":
        """A new view with ``server_id`` alive again (crash recovery).

        A rejoining server takes back its original slot in the member
        order, so the splice rule keeps working unchanged.  Reviving a
        server that is not dead is a no-op — rejoin announcements are
        retried and may race the reconfiguration that already folded the
        server back in.  Reviving *bumps* the epoch like any other
        membership change, so epochs never repeat across views even
        though the dead set is no longer monotone under recovery.
        """
        if server_id not in set(self.members):
            raise ConfigurationError(f"unknown server {server_id}")
        if server_id not in self.dead:
            return self
        return RingView(self.members, self.dead - {server_id}, self.epoch + 1)

    def revive_all(self, server_ids) -> "RingView":
        """A new view with every id in ``server_ids`` alive again."""
        revivals = frozenset(server_ids) & self.dead
        if not revivals:
            return self
        return RingView(self.members, self.dead - revivals, self.epoch + 1)
