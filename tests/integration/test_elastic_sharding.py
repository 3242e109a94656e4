"""Integration tests for elastic placement: multi-ring block stores,
live migration, the abort path, and crash recovery of whole rings."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.placement import MigrationPlan
from repro.errors import ConfigurationError, PlacementStaleError
from repro.runtime.sharded import BlockStore
from repro.sim.counters import MIGRATION_ABORTED, SHARD_REDIRECTS

RINGS = [(0, 1), (2, 3)]


def _build(num_blocks=2, rebalance=False, seed=60, **kwargs):
    kwargs.setdefault(
        "protocol", ProtocolConfig(client_timeout=0.08, client_max_retries=40)
    )
    return BlockStore.build(
        num_servers=4, num_blocks=num_blocks, seed=seed,
        rings=RINGS, rebalance=rebalance, **kwargs,
    )


def test_multi_ring_round_trip():
    """Blocks placed on different rings serve independently: each ring
    only hosts (and only circulates tokens for) its own blocks."""
    store = _build(num_blocks=4, seed=61)
    for i in range(4):
        store.write_block(i, b"ring-%d" % i)
    for i in range(4):
        assert store.read_block(i) == b"ring-%d" % i
    # Placement is real: ring 0's servers host blocks 0-1 only.
    assert sorted(store.cluster.servers[0].protos) == [0, 1]
    assert sorted(store.cluster.servers[2].protos) == [2, 3]


def test_elastic_cluster_needs_two_rings():
    with pytest.raises(ConfigurationError):
        BlockStore.build(num_servers=2, num_blocks=2, rings=[(0, 1)])


def test_rebalancer_migrates_hot_blocks_and_data_survives():
    """Under a hot-block workload on a packed placement the rebalancer
    migrates live: written data survives the snapshot handoff, clients
    chase redirects to the new ring, and the table converges off ring 0."""
    store = _build(
        num_blocks=4, rebalance=True, seed=62,
        pack=True, rebalance_interval=0.01, min_load=2.0,
    )
    cluster = store.cluster
    assert cluster.placement.blocks_on(0) == (0, 1, 2, 3)
    for i in range(4):
        store.write_block(i, b"gen0-%d" % i)
    # Hammer block 0: every sample shows ring 0 hot and ring 1 idle.
    for spin in range(30):
        store.write_block(0, b"hot-%d" % spin)
    rebalancer = cluster.rebalancer
    assert rebalancer.completed >= 1, "no migration ever completed"
    assert cluster.placement.version == rebalancer.completed
    assert len(cluster.placement.blocks_on(0)) < 4, "nothing left ring 0"
    # Every block — migrated or not — still serves its latest value.
    assert store.read_block(0) == b"hot-29"
    for i in range(1, 4):
        assert store.read_block(i) == b"gen0-%d" % i
    # The facade client learned the moves through redirect chasing.
    assert cluster.env.trace.counters.get(SHARD_REDIRECTS, 0) >= 1


def test_split_leaves_dominant_block_alone_on_its_ring():
    """A dominant hot block is split: co-residents are evicted one
    migration at a time until it owns ring 0 outright."""
    store = _build(
        num_blocks=3, rebalance=True, seed=63,
        pack=True, rebalance_interval=0.01, min_load=2.0,
    )
    cluster = store.cluster
    for i in range(3):
        store.write_block(i, b"seed-%d" % i)
    for spin in range(60):
        store.write_block(0, b"dom-%d" % spin)
    assert cluster.rebalancer.splits >= 1, "no split decision fired"
    assert cluster.placement.blocks_on(0) == (0,), (
        "the dominant block should end up alone on its ring"
    )
    assert store.read_block(0) == b"dom-59"


def crash_destination_mid_migration() -> BlockStore:
    """Start moving block 0 to ring 1, then crash a ring-1 member."""
    store = _build(rebalance=True, seed=64, rebalance_first_delay=500.0)
    store.write_block(0, b"precious")
    rebalancer = store.cluster.rebalancer
    rebalancer._start(MigrationPlan(block=0, source=0, dest=1))
    assert rebalancer._active is not None, "migration should be in flight"
    store.cluster.crash_server(2)  # destination member dies mid-attempt
    return store


def test_destination_crash_mid_migration_aborts_cleanly():
    """A destination-member crash aborts the attempt: staged state is
    discarded, the table is untouched and the source ring resumes."""
    store = crash_destination_mid_migration()
    cluster = store.cluster
    rebalancer = cluster.rebalancer
    assert rebalancer._active is None
    assert rebalancer.aborted == 1 and rebalancer.completed == 0
    assert cluster.env.trace.counters.get(MIGRATION_ABORTED) == 1
    # The table never moved; the source ring serves as if nothing happened.
    assert cluster.placement.ring_of(0) == 0
    assert store.read_block(0) == b"precious"


def test_migration_timeout_aborts_when_destination_ring_is_gone():
    """If the transfer can never be staged (whole destination ring down
    after the attempt started) the timeout expires the attempt."""
    store = _build(
        rebalance=True, seed=65,
        rebalance_first_delay=500.0, migration_timeout=0.2,
    )
    cluster = store.cluster
    store.write_block(0, b"kept")
    rebalancer = cluster.rebalancer
    rebalancer._start(MigrationPlan(block=0, source=0, dest=1))
    cluster.crash_server(3)  # abort via the crash listener
    assert rebalancer.aborted == 1
    cluster.run(until=cluster.now + 0.5)
    assert cluster.placement.ring_of(0) == 0
    assert store.read_block(0) == b"kept"


def test_stale_client_binding_raises_placement_stale_error():
    """Red path of the typed error: a client whose redirect chase can
    never converge (the placement entry keeps pointing at a ring that
    refuses the block) exhausts its budget and surfaces
    PlacementStaleError instead of a generic timeout."""
    store = _build(num_blocks=2, seed=66)
    store.write_block(1, b"green")  # green path: placed reads just work
    assert store.read_block(1) == b"green"
    for sid in RINGS[1]:
        store.cluster.servers[sid].drop_block(1)
    with pytest.raises(PlacementStaleError):
        store.read_block(1)
    # The other block is untouched by the poisoned one.
    store.write_block(0, b"still-fine")
    assert store.read_block(0) == b"still-fine"


def test_restart_respects_placement_after_migration():
    """A source member that was down across a migration restarts into
    the *current* table: the migrated-away block is not resurrected from
    its stale local snapshot."""
    store = _build(num_blocks=4, rebalance=True, seed=67,
                   rebalance_first_delay=500.0)
    cluster = store.cluster
    store.write_block(0, b"mig-me")
    store.write_block(1, b"stays")
    cluster.crash_server(0)
    cluster.run(until=cluster.now + 0.2)
    rebalancer = cluster.rebalancer
    rebalancer._start(MigrationPlan(block=0, source=0, dest=1))
    cluster.run_until(lambda: rebalancer.completed == 1)
    assert cluster.placement.ring_of(0) == 1
    cluster.restart_server(0)
    cluster.run(until=cluster.now + 1.0)
    host = cluster.servers[0]
    assert 0 not in host.protos and 0 not in host._stores
    assert sorted(host.protos) == [1], (
        "only the block still placed on ring 0 should be rebuilt"
    )
    assert store.read_block(0) == b"mig-me"
    assert store.read_block(1) == b"stays"
