"""Explicit, versioned block placement for the elastic sharded store.

PR 5's ``BlockStore`` mapped every block onto *the* ring implicitly: one
cluster-wide ring, every server hosting every block.  That identity map
cannot express the thing a skewed workload needs — moving a hot block
onto spare capacity — so this module replaces it with data:

* :class:`PlacementTable` — ring id -> member servers, block -> ring,
  plus a **version per block** and a global version.  Every placement
  change bumps both, which is what lets a server detect (and a client
  chase) a stale binding instead of silently serving the wrong ring —
  the PR 5 mis-routing class, now structural.
* :func:`plan_rebalance` — the pure policy: given per-block load
  samples, decide which block to migrate (or whether a hot block earns a
  *dedicated* placement, the "split" decision).  Deterministic: sorted
  iteration, no RNG, no clocks — the rebalancer in
  :mod:`repro.runtime.sharded` just executes what this returns.
* :class:`PlacementRedirect` / :class:`BlockTransfer` — the two wire
  messages migration adds.  They live here rather than in
  :mod:`repro.core.messages` because they are runtime-routed control
  traffic, not ring-protocol payloads: the codec never sees them, but
  both implement ``payload_bytes()`` so the simulated wire charges them
  like everything else.

A block never has two simultaneously-serving placements.  A *split*
means the hot block ends up alone on its ring (its cold co-residents
are migrated away), not that two rings answer for it — that invariant,
plus per-block histories and the epoch-stamped snapshot handoff, is the
linearizability argument (docs/sharding.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.durable import ServerSnapshot
from repro.core.messages import OpId
from repro.errors import ConfigurationError

#: Failure reason reported by a client that exhausted its redirect
#: budget; the ``BlockStore`` maps it to :class:`PlacementStaleError`.
PLACEMENT_STALE_REASON = "placement stale"


@dataclass(frozen=True)
class PlacementRedirect:
    """Server -> client: "this block is not placed here any more".

    Carries the authoritative placement entry so the client can retarget
    its retry immediately instead of walking dead bindings until the
    timeout fires.  ``version`` is the *block's* placement version — the
    client only overwrites a cached entry with a newer one, so a redirect
    that raced a later migration cannot roll the cache backwards.
    """

    op: OpId
    block: int
    version: int
    servers: tuple[int, ...]

    def payload_bytes(self) -> int:
        # op (client + seq) + block + version + member list.
        return 8 + 4 + 4 + 4 * len(self.servers)


@dataclass(frozen=True)
class BlockTransfer:
    """Migration state handoff: one destination member's copy.

    Sent by the rebalancer from the drained source member to every
    member of the destination ring, outside the ring protocol (the
    destination is not part of the block's ring yet).  ``nonce``
    identifies the migration attempt: a transfer that survives in the
    fabric past an abort — or is duplicated by the nemesis — fails the
    nonce check at delivery and is dropped, never installed.
    """

    block: int
    nonce: int
    source: int
    snapshot: Optional[ServerSnapshot]
    #: Placement version the block will carry once cutover commits.
    version: int

    def payload_bytes(self) -> int:
        if self.snapshot is None:
            return 24
        value = len(self.snapshot.value)
        entries = (
            len(self.snapshot.watermark)
            + len(self.snapshot.completed_ops)
            + len(self.snapshot.completed_tags)
        )
        return 24 + value + 12 * entries


@dataclass(frozen=True)
class MigrationPlan:
    """One rebalancing decision: move ``block`` from ``source`` ring to
    ``dest`` ring.  ``split`` marks the decision as a hot-block split:
    the move exists to leave the hottest block alone on its ring."""

    block: int
    source: int
    dest: int
    split: bool = False


@dataclass
class PlacementTable:
    """Versioned block -> ring map over fixed, disjoint server rings.

    Rings are static server groups (reconfiguration *within* a ring —
    crashes, rejoins — stays the epoch machinery's job); elasticity is
    blocks moving between rings.  The table is the control plane's
    single source of truth: server hosts consult it to answer "do I
    still host this block?", clients cache per-block entries and chase
    :class:`PlacementRedirect` replies when their cache goes stale.
    """

    rings: dict[int, tuple[int, ...]]
    blocks: dict[int, int]
    versions: dict[int, int] = field(default_factory=dict)
    version: int = 0

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for ring_id in sorted(self.rings):
            members = self.rings[ring_id]
            if not members:
                raise ConfigurationError(f"ring {ring_id} has no members")
            overlap = seen & set(members)
            if overlap:
                raise ConfigurationError(
                    f"rings must be disjoint; servers {sorted(overlap)} appear twice"
                )
            seen |= set(members)
        for block in sorted(self.blocks):
            ring_id = self.blocks[block]
            if ring_id not in self.rings:
                raise ConfigurationError(
                    f"block {block} placed on unknown ring {ring_id}"
                )
            self.versions.setdefault(block, 0)

    # -- construction ---------------------------------------------------

    @classmethod
    def initial(
        cls, num_blocks: int, rings: list[tuple[int, ...]], *, pack: bool = False
    ) -> "PlacementTable":
        """Contiguous initial placement: block ``b`` on ring
        ``b * len(rings) // num_blocks`` — or, with ``pack=True``, every
        block on ring 0 (the "capacity was added but nothing moved yet"
        starting point the elastic benchmarks measure against)."""
        if num_blocks < 1:
            raise ConfigurationError(f"num_blocks must be >= 1, got {num_blocks}")
        if not rings:
            raise ConfigurationError("at least one ring is required")
        ring_map = {ring_id: tuple(members) for ring_id, members in enumerate(rings)}
        if pack:
            block_map = {block: 0 for block in range(num_blocks)}
        else:
            block_map = {
                block: min(block * len(rings) // num_blocks, len(rings) - 1)
                for block in range(num_blocks)
            }
        return cls(rings=ring_map, blocks=block_map)

    # -- queries --------------------------------------------------------

    def ring_of(self, block: int) -> int:
        return self.blocks[block]

    def servers_of(self, block: int) -> tuple[int, ...]:
        return self.rings[self.blocks[block]]

    def entry(self, block: int) -> tuple[int, tuple[int, ...]]:
        """The client-cacheable ``(version, members)`` pair for a block."""
        return self.versions[block], self.servers_of(block)

    def blocks_on(self, ring_id: int) -> tuple[int, ...]:
        return tuple(
            block for block in sorted(self.blocks) if self.blocks[block] == ring_id
        )

    def blocks_of(self, server_id: int) -> tuple[int, ...]:
        """Blocks currently placed on rings containing ``server_id``."""
        owned = {
            ring_id for ring_id, members in self.rings.items() if server_id in members
        }
        return tuple(
            block for block in sorted(self.blocks) if self.blocks[block] in owned
        )

    # -- mutation -------------------------------------------------------

    def move(self, block: int, ring_id: int) -> None:
        """Commit a migration: re-place ``block`` and bump versions.

        Called exactly once per successful cutover — after the
        destination ring holds the transferred state — never while the
        transfer is still in flight (an aborted migration leaves the
        table untouched, which is why aborting is always safe)."""
        if ring_id not in self.rings:
            raise ConfigurationError(f"unknown ring {ring_id}")
        if self.blocks[block] == ring_id:
            raise ConfigurationError(f"block {block} is already on ring {ring_id}")
        self.blocks[block] = ring_id
        self.versions[block] += 1
        self.version += 1


def plan_rebalance(
    loads: dict[int, float],
    table: PlacementTable,
    *,
    imbalance: float = 2.0,
    min_load: float = 1.0,
    split_fraction: float = 0.5,
) -> Optional[MigrationPlan]:
    """Pick at most one migration from interval load samples.

    ``loads`` maps block -> load observed over the last interval (the
    rebalancer feeds ops; any monotone measure works).  The policy:

    1. Aggregate per ring.  If the hottest ring carries less than
       ``imbalance`` times the coldest (or under ``min_load`` total),
       do nothing — noise must not cause migration churn.
    2. Otherwise shed load from the hottest ring that *can* shed (a
       lone-block ring is already as placed as it can be; the next ring
       down is considered) onto the coldest ring.  If the hottest
       *block* on the shedding ring accounts for more than
       ``split_fraction`` of its ring's load **and** has co-resident
       blocks, migrate the hottest *co-resident* away instead — the
       split decision: the dominant block earns a dedicated ring one
       eviction at a time, because moving the dominant block itself
       would just relocate the hotspot.
    3. Plain imbalance moves the hottest block whose move strictly
       improves the pair — ``max(hot', cold')`` drops below the current
       hot load — so rebalancing converges instead of ping-ponging.

    Pure and deterministic (sorted iteration, ties broken by lowest id):
    unit-testable without a cluster, replayable from a trace.
    """
    if len(table.rings) < 2:
        return None
    ring_loads = {ring_id: 0.0 for ring_id in table.rings}
    for block in sorted(loads):
        if block in table.blocks:
            ring_loads[table.ring_of(block)] += loads[block]
    cold_ring = min(sorted(ring_loads), key=lambda rid: ring_loads[rid])
    cold_load = ring_loads[cold_ring]
    hottest_first = sorted(ring_loads, key=lambda rid: (-ring_loads[rid], rid))
    for hot_ring in hottest_first:
        if hot_ring == cold_ring:
            break
        hot_load = ring_loads[hot_ring]
        if hot_load < min_load or hot_load < imbalance * max(cold_load, min_load / 2):
            break  # rings below this one are colder still
        residents = table.blocks_on(hot_ring)
        if len(residents) < 2:
            continue  # a lone block is already as placed as it can be
        by_load = sorted(residents, key=lambda block: (-loads.get(block, 0.0), block))
        hottest = by_load[0]
        if loads.get(hottest, 0.0) > split_fraction * hot_load:
            # Split: evict the hottest co-resident, leaving the dominant
            # block closer to a dedicated placement.
            return MigrationPlan(
                block=by_load[1], source=hot_ring, dest=cold_ring, split=True
            )
        for block in by_load:
            moved = loads.get(block, 0.0)
            if max(cold_load + moved, hot_load - moved) < hot_load - 1e-9:
                return MigrationPlan(block=block, source=hot_ring, dest=cold_ring)
    return None
