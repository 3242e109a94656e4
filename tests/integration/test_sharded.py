"""Integration tests for the multi-register block store."""

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.runtime.sharded import BlockStore, ShardedServerHost, add_shard_client
from repro.runtime.sim_net import ServerHost


def test_blocks_are_independent():
    store = BlockStore.build(num_servers=3, num_blocks=4, seed=31)
    store.write_block(0, b"zero")
    store.write_block(2, b"two")
    assert store.read_block(0) == b"zero"
    assert store.read_block(1) == b"", "untouched block keeps initial value"
    assert store.read_block(2) == b"two"


def test_overwrites_within_block():
    store = BlockStore.build(num_servers=3, num_blocks=2, seed=32)
    for i in range(5):
        store.write_block(1, b"gen-%d" % i)
    assert store.read_block(1) == b"gen-4"
    assert store.read_block(0) == b""


def test_many_blocks_round_trip():
    store = BlockStore.build(num_servers=4, num_blocks=16, seed=33)
    for i in range(16):
        store.write_block(i, b"payload-%02d" % i)
    for i in range(16):
        assert store.read_block(i) == b"payload-%02d" % i


def test_block_bounds_checked():
    store = BlockStore.build(num_servers=2, num_blocks=2, seed=34)
    with pytest.raises(ConfigurationError):
        store.read_block(2)
    with pytest.raises(ConfigurationError):
        store.write_block(-1, b"")
    with pytest.raises(ConfigurationError):
        BlockStore.build(num_servers=2, num_blocks=0)


def _refuses_block_7_of_2(store: BlockStore) -> None:
    cluster = store.cluster
    client = add_shard_client(cluster)
    before = dict(cluster.env.trace.counters)
    done: list = []
    with pytest.raises(ConfigurationError, match="block 7"):
        client.read_block(7, done.append)
    with pytest.raises(ConfigurationError, match="block 7"):
        client.write_block(7, b"x", done.append)
    assert dict(cluster.env.trace.counters) == before, "nothing may be sent"
    client.read_block(1, done.append)
    cluster.run_until(lambda: bool(done))
    assert done[0].ok, "the refusal leaves the client usable"


def test_a_static_client_refuses_a_block_no_ring_holds():
    """Block 7 of 2 on a static store: refused at the client, where
    every server used to drop it until the retries ran out."""
    _refuses_block_7_of_2(BlockStore.build(num_servers=2, num_blocks=2, seed=35))


def test_an_elastic_client_refuses_a_block_no_ring_holds():
    """The same block on an elastic store: a ``ConfigurationError``
    naming it, not a ``KeyError`` from the placement table."""
    store = BlockStore.build(
        num_servers=4, num_blocks=2, seed=35, rings=[(0, 1), (2, 3)], rebalance=False
    )
    _refuses_block_7_of_2(store)


def test_retry_after_block_switch_stays_in_its_block():
    """Regression: the retry of a timed-out operation must re-wrap with
    the *originating* operation's block.

    The original client host kept one machine-wide "current block" read
    again at retransmit time (``_current_reg``), so a retry issued after
    a concurrent logical client switched blocks carried the wrong
    :class:`ShardEnvelope` and wrote into a neighbouring register: here,
    client A's write of block 0 landed in block 1 and block 0 was never
    written at all.  Per-op pinning keeps both writes home.
    """
    config = ProtocolConfig(client_timeout=0.05, client_max_retries=10)
    store = BlockStore.build(num_servers=3, num_blocks=2, seed=36, protocol=config)
    host = store._client
    a = host.add_virtual_client()
    b = host.add_virtual_client()
    done = []
    # Crash the home server first: both initial sends are lost, and both
    # operations complete through timed-out retries at the next server —
    # with client B's block switch happening between A's send and A's
    # retry, exactly the interleaving that mis-routed the old code.
    store.cluster.crash_server(0)
    host.write_block(0, b"value-A", done.append, client_id=a)
    host.write_block(1, b"value-B", done.append, client_id=b)
    store.cluster.run_until(lambda: len(done) == 2)
    assert all(result.ok for result in done)
    assert store.read_block(0) == b"value-A"
    assert store.read_block(1) == b"value-B"


def test_a_plain_operation_targets_block_zero():
    """A plain ``write``/``read`` on a sharded client host targets block
    0, also right after a block operation and after a block operation
    that was refused at its start."""
    store = BlockStore.build(num_servers=2, num_blocks=2, seed=37)
    host = store._client
    done: list = []
    host.write_block(1, b"one", done.append)
    store.cluster.run_until(lambda: len(done) == 1)
    host.write(b"zero", done.append)
    with pytest.raises(ProtocolError):
        host.write_block(1, b"refused: one op in flight", done.append)
    store.cluster.run_until(lambda: len(done) == 2)
    host.read(done.append)
    store.cluster.run_until(lambda: len(done) == 3)
    assert [result.ok for result in done] == [True, True, True]
    assert done[2].value == b"zero"
    assert store.read_block(1) == b"one"


def test_sharded_server_restart_rejoins_every_block():
    """A restarted sharded server reloads every block from its per-block
    durable snapshots, rejoins each block's ring, and catches up on the
    writes it missed while down."""
    config = ProtocolConfig(client_timeout=0.08, client_max_retries=30)
    store = BlockStore.build(num_servers=3, num_blocks=4, seed=37, protocol=config)
    cluster = store.cluster
    for i in range(4):
        store.write_block(i, b"gen0-%d" % i)
    cluster.crash_server(1)
    cluster.run(until=cluster.now + 0.3)
    store.write_block(2, b"while-down")  # committed without s1
    cluster.restart_server(1)
    cluster.run(until=cluster.now + 1.2)

    host = cluster.servers[1]
    for reg, proto in host.protos.items():
        assert not proto.rejoining, f"block {reg} stuck rejoining"
        assert not proto.paused, f"block {reg} stuck paused"
    # Catch-up before serving: the write that happened while s1 was down
    # arrived through the fold-in merge, the rest from its own snapshots.
    assert host.protos[2].value == b"while-down"
    for i in (0, 1, 3):
        assert host.protos[i].value == b"gen0-%d" % i
    assert cluster.env.trace.counters["process.restarts"] == 1

    store.write_block(0, b"after-rejoin")
    assert store.read_block(0) == b"after-rejoin"


def test_sharded_cluster_survives_crash_cycle_under_heartbeat_detector():
    """The sharded host participates in the epoch machinery: under the
    imperfect heartbeat detector every block runs epoch-guarded
    quorum-installed views, a crashed server is excluded per block via
    suspicion, and a restarted one is folded back into every block."""
    config = ProtocolConfig(client_timeout=0.1, client_max_retries=40)
    store = BlockStore.build(
        num_servers=3, num_blocks=3, seed=38, protocol=config, fd="heartbeat"
    )
    cluster = store.cluster
    assert cluster.config.protocol.view_quorum, "heartbeat forces view_quorum"
    for i in range(3):
        store.write_block(i, b"hb-%d" % i)
    cluster.crash_server(2)
    cluster.run(until=cluster.now + 2.0)  # suspicion + per-block exclusion
    for i in range(3):
        assert store.read_block(i) == b"hb-%d" % i
    store.write_block(1, b"hb-down")
    cluster.restart_server(2)
    cluster.run(until=cluster.now + 2.5)  # announce + fold-in per block
    host = cluster.servers[2]
    for reg, proto in host.protos.items():
        assert not proto.rejoining, f"block {reg} stuck rejoining"
        assert not proto.paused, f"block {reg} stuck paused"
    assert host.protos[1].value == b"hb-down"
    store.write_block(0, b"hb-after")
    assert store.read_block(0) == b"hb-after"


def test_restarted_sharded_host_rejoins_and_re_leases_every_block_on_a_fresh_driver():
    """The sharded host is a :class:`ServerHost`: one control-plane
    driver per incarnation, serving every block.  After a restart under
    the heartbeat detector with read leases, the *new* driver's single
    rejoin pump folds every block back in, its suspect-first tracker is
    rehabilitated by live peers, and every block re-earns its lease from
    scratch — reads homed at the restarted server are lease-local again."""
    config = ProtocolConfig(
        client_timeout=0.1, client_max_retries=40, read_leases=True, view_quorum=True
    )
    store = BlockStore.build(
        num_servers=3, num_blocks=3, seed=39, protocol=config, fd="heartbeat"
    )
    cluster = store.cluster
    host = cluster.servers[2]
    assert isinstance(host, ShardedServerHost) and isinstance(host, ServerHost)
    first_driver = host.driver
    for i in range(3):
        store.write_block(i, b"lease-%d" % i)
    cluster.crash_server(2)
    cluster.run(until=cluster.now + 2.0)
    store.write_block(1, b"while-down")
    unsuspects = cluster.env.trace.counters["fd.unsuspects"]
    cluster.restart_server(2)
    assert host.driver is not first_driver, "a restart builds a fresh driver"
    assert all(proto.rejoining for proto in host.hosted)
    cluster.run(until=cluster.now + 2.5)

    for reg, proto in host.protos.items():
        assert not proto.rejoining, f"block {reg} stuck rejoining"
        assert not proto.paused, f"block {reg} stuck paused"
        assert proto.views.lease_valid, f"block {reg} never re-earned its lease"
    assert host.protos[1].value == b"while-down"
    assert cluster.env.trace.counters["fd.unsuspects"] > unsuspects

    local = cluster.env.trace.counters["lease.local_reads"]
    results = []
    for i in range(3):
        # A client per block: a session tag earned on one block would
        # send the next block's read down the fence path.
        add_shard_client(cluster, home_server=2).read_block(i, results.append)
        cluster.run_until(lambda: len(results) == i + 1)
    assert [r.value for r in results] == [b"lease-0", b"while-down", b"lease-2"]
    assert cluster.env.trace.counters["lease.local_reads"] == local + 3


def test_blocks_survive_crash():
    store = BlockStore.build(
        num_servers=4,
        num_blocks=4,
        seed=35,
        protocol=ProtocolConfig(client_timeout=0.1, client_max_retries=20),
    )
    for i in range(4):
        store.write_block(i, b"pre-crash-%d" % i)
    store.cluster.crash_server(1)
    store.cluster.run(until=store.cluster.now + 0.2)
    for i in range(4):
        assert store.read_block(i) == b"pre-crash-%d" % i
    store.write_block(2, b"post-crash")
    assert store.read_block(2) == b"post-crash"


def test_sharded_restart_keeps_initial_value_of_untouched_blocks():
    """Per-block stores persist lazily: a block never written has no
    snapshot, and its restore must fall back to the configured initial
    value rather than an empty register."""
    config = ProtocolConfig(client_timeout=0.08, client_max_retries=30)
    store = BlockStore.build(
        num_servers=2, num_blocks=2, seed=39, protocol=config,
        initial_value=b"preloaded",
    )
    cluster = store.cluster
    store.write_block(0, b"dirty")  # block 1's stores never persist
    cluster.crash_server(1)
    cluster.run(until=cluster.now + 0.3)
    cluster.restart_server(1)
    cluster.run(until=cluster.now + 1.2)
    assert cluster.servers[1].protos[1].value == b"preloaded"
    assert store.read_block(1) == b"preloaded"
    assert store.read_block(0) == b"dirty"
