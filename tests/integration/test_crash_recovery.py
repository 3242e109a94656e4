"""Crash-recovery integration: restart, rejoin, and serve again.

The recovery model under test: a crashed server restarts from its
durable snapshot, announces itself to a live sponsor, and is folded back
into the ring by a reconfiguration whose token traverses the *grown*
ring — so the rejoiner catches up (merged tag/value, merged pending set)
before it serves a single read.  Histories must stay linearizable
through the whole cycle, including a second crash of the same server.
"""

import pytest

from repro import AtomicStorage, SimCluster
from repro.analysis import History, check_register_history
from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.runtime.sharded import BlockStore, add_shard_client
from repro.sim.faults import FaultPlan


def fast_retry() -> ProtocolConfig:
    return ProtocolConfig(client_timeout=0.08, client_max_retries=30)


def settle(cluster, seconds: float = 1.2) -> None:
    cluster.run(until=cluster.now + seconds)


def test_restarted_server_rejoins_and_serves_committed_reads():
    cluster = SimCluster.build(num_servers=4, seed=21, protocol=fast_retry())
    cluster.history = History()
    storage = AtomicStorage.over(cluster, home_server=0)
    storage.write(b"before-crash")
    cluster.crash_server(1)
    settle(cluster, 0.3)
    storage.write(b"while-down")  # committed without s1
    cluster.restart_server(1)
    settle(cluster)

    proto = cluster.servers[1].proto
    assert not proto.rejoining and not proto.paused, "rejoin must complete"
    # Catch-up happened before serving: the rejoined server holds the
    # write it missed while down.
    assert proto.value == b"while-down"
    # Every survivor folded it back in.
    for sid in (0, 2, 3):
        assert cluster.servers[sid].proto.ring.is_alive(1)
    assert cluster.env.trace.counters["process.restarts"] == 1

    # The rejoined server serves committed reads directly.
    reader = AtomicStorage.over(cluster, home_server=1)
    assert reader.read() == b"while-down"
    storage.write(b"after-rejoin")
    assert reader.read() == b"after-rejoin"
    assert cluster.servers[1].proto.stats_reads_served >= 1

    cluster.history.close()
    ok, reason = check_register_history(cluster.history)
    assert ok, reason


def test_rejoined_server_initiates_writes_again():
    cluster = SimCluster.build(num_servers=3, seed=22, protocol=fast_retry())
    storage = AtomicStorage.over(cluster, home_server=2)
    storage.write(b"seed")
    cluster.crash_server(2)
    settle(cluster, 0.3)
    cluster.restart_server(2)
    settle(cluster)
    # The handle is homed at s2: with s2 rejoined, its next write is
    # initiated *by* the recovered server.
    storage.write(b"initiated-by-rejoiner")
    assert storage.read() == b"initiated-by-rejoiner"
    assert cluster.servers[2].proto.stats_writes_initiated >= 1


def test_restart_during_another_servers_reconfiguration():
    """A server restarts while the ring is still reconfiguring around a
    *different* crash; the history stays linearizable and the rejoiner
    is eventually folded in."""
    cluster = SimCluster.build(num_servers=5, seed=23, protocol=fast_retry())
    cluster.history = History()
    clients = [AtomicStorage.over(cluster, home_server=i) for i in range(5)]
    clients[0].write(b"base")

    cluster.crash_server(1)
    settle(cluster, 0.4)
    # Crash s3 and, before its reconfiguration can settle, restart s1:
    # the rejoin handshake races the crash-triggered merge.
    cluster.crash_server(3)
    cluster.restart_server(1)
    for i in range(6):
        client = clients[i % 5]
        client.write(b"load-%d" % i)
        assert client.read() == b"load-%d" % i
    settle(cluster)

    assert not cluster.servers[1].proto.rejoining
    assert cluster.servers[0].proto.ring.is_alive(1)
    assert not cluster.servers[0].proto.ring.is_alive(3)
    cluster.history.close()
    ok, reason = check_register_history(cluster.history)
    assert ok, reason


def test_crash_rejoin_crash_again_is_detected_again():
    cluster = SimCluster.build(num_servers=4, seed=24, protocol=fast_retry())
    cluster.history = History()
    storage = AtomicStorage.over(cluster, home_server=0)
    storage.write(b"v1")
    cluster.crash_server(1)
    settle(cluster, 0.3)
    cluster.restart_server(1)
    settle(cluster)
    assert cluster.servers[0].proto.ring.is_alive(1)

    # Second crash of the same server: the failure detector must fire
    # again (its suspicion was cleared at recovery) and the ring must
    # shrink again.
    cluster.crash_server(1)
    settle(cluster, 0.4)
    assert not cluster.servers[0].proto.ring.is_alive(1)
    storage.write(b"v2")
    assert storage.read() == b"v2"
    assert cluster.env.trace.counters["fd.detections"] >= 2

    cluster.history.close()
    ok, reason = check_register_history(cluster.history)
    assert ok, reason


def test_restart_with_no_survivors_serves_from_snapshot():
    """Everyone died; the restarted server is the whole ring and serves
    the last committed value from its durable snapshot."""
    cluster = SimCluster.build(num_servers=3, seed=25, protocol=fast_retry())
    storage = AtomicStorage.over(cluster, home_server=0)
    storage.write(b"precious")
    for sid in (0, 1, 2):
        cluster.crash_server(sid)
    settle(cluster, 0.3)
    cluster.restart_server(2)
    settle(cluster, 0.3)
    proto = cluster.servers[2].proto
    assert not proto.rejoining and proto.alone
    reader = AtomicStorage.over(cluster, home_server=2)
    assert reader.read() == b"precious"
    reader.write(b"post-apocalypse")
    assert reader.read() == b"post-apocalypse"


class _RingOfTwo:
    """Register 0 on a ring of servers 0 and 1, in each host shape:
    the unsharded cluster, a static block store (one ring of every
    server) and an elastic one (rings (0, 1) and (2, 3))."""

    def __init__(self, shape: str, seed: int):
        self.shape = shape
        if shape == "unsharded":
            self.cluster = SimCluster.build(
                num_servers=2, seed=seed, protocol=fast_retry()
            )
            self.write = AtomicStorage.over(self.cluster, home_server=0).write
        else:
            store = BlockStore.build(
                num_servers=2 if shape == "static" else 4, num_blocks=2, seed=seed,
                rings=None if shape == "static" else [(0, 1), (2, 3)],
                rebalance=False, protocol=fast_retry(),
            )  # fmt: skip
            self.cluster = store.cluster
            self.write = lambda value: store.write_block(0, value)

    def instance(self, sid: int):
        host = self.cluster.servers[sid]
        return host.proto if self.shape == "unsharded" else host.protos[0]

    def read_across_restart_of_s0(self) -> bytes:
        """Issue a read while s0 is down, through a client whose first
        pick is s1 (an elastic client picks by ring position, so it asks
        s0 first), restart s0 50 ms later and return what the read got."""
        done: list = []
        if self.shape == "unsharded":
            self.cluster.add_client(home_server=1).read(done.append)
        else:
            add_shard_client(self.cluster, home_server=1).read_block(0, done.append)
        self.cluster.env.scheduler.schedule(0.05, self.cluster.restart_server, 0)
        self.cluster.run_until(lambda: bool(done))
        assert done[0].ok, done[0].error
        return done[0].value


SHAPES = ["unsharded", "static", "elastic"]


@pytest.mark.parametrize("shape", SHAPES)
def test_ring_member_resumes_alone_only_if_it_crashed_last(shape):
    """Crash-order recovery: when every member of a register's ring has
    crashed, only the member that crashed *last* may restart straight
    into serving — it alone saw every acknowledged write.  An
    earlier-crashed member restarting first must come back rejoining
    and wait, or it would serve (and migration would propagate) a stale
    copy."""
    ring = _RingOfTwo(shape, seed=68)
    cluster = ring.cluster
    ring.write(b"both-up")
    cluster.crash_server(1)
    settle(cluster, 0.2)
    ring.write(b"only-s0")  # acknowledged by s0 alone
    cluster.crash_server(0)  # whole ring down; s0 crashed last
    cluster.restart_server(1)  # the *stale* member restarts first
    settle(cluster, 0.3)
    waited = ring.instance(1).rejoining
    # The freshest copy returns and sponsors s1; the read waits for it.
    assert ring.read_across_restart_of_s0() == b"only-s0"
    assert waited, "the earlier-crashed member must wait for the last-crashed one"
    settle(cluster, 1.0)
    for sid in (0, 1):
        assert not ring.instance(sid).rejoining


@pytest.mark.parametrize("shape", SHAPES)
def test_rejoiner_whose_sponsor_crashes_waits_for_it(shape):
    """The rejoin pump's route to the same stale copy: s1 restarts while
    s0 serves, and s0 crashes before it folds s1 in.  With no sponsor
    left s1 keeps rejoining; it does not resume alone."""
    ring = _RingOfTwo(shape, seed=69)
    cluster = ring.cluster
    ring.write(b"both-up")
    cluster.crash_server(1)
    settle(cluster, 0.2)
    ring.write(b"only-s0")
    cluster.restart_server(1)  # rejoining: s0 is up and serving
    cluster.crash_server(0)  # before s0 has folded s1 in
    settle(cluster, 1.0)  # three empty pump rounds
    waited = ring.instance(1).rejoining
    assert ring.read_across_restart_of_s0() == b"only-s0"
    assert waited, "a rejoiner with no sponsor must keep waiting"
    settle(cluster, 1.0)
    for sid in (0, 1):
        assert not ring.instance(sid).rejoining


@pytest.mark.parametrize("shape", SHAPES)
def test_a_crash_while_rejoining_does_not_make_a_member_the_freshest(shape):
    """Crash order counts crashes *while serving*: s1 restarts into a
    dead ring, waits rejoining and crashes again.  That later crash
    must not let s1's stale copy outrank s0, which crashed last while
    serving."""
    ring = _RingOfTwo(shape, seed=70)
    cluster = ring.cluster
    ring.write(b"both-up")
    cluster.crash_server(1)
    settle(cluster, 0.2)
    ring.write(b"only-s0")
    cluster.crash_server(0)
    cluster.restart_server(1)  # rejoining: s0 crashed after it
    settle(cluster, 0.1)
    cluster.crash_server(1)  # again, still rejoining
    cluster.restart_server(1)
    settle(cluster, 0.1)
    waited = ring.instance(1).rejoining
    assert ring.read_across_restart_of_s0() == b"only-s0"
    assert waited, "a crash while rejoining must not refresh the crash order"


def test_fault_plan_crash_restart_pair_end_to_end():
    """The declarative surface: a crash/restart pair in a FaultPlan
    turns into a full recovery cycle, proven by the trace counters."""
    cluster = SimCluster.build(num_servers=4, seed=26, protocol=fast_retry())
    cluster.history = History()
    clients = [AtomicStorage.over(cluster, home_server=i) for i in range(4)]
    plan = FaultPlan().crash("s2", at=0.05).restart("s2", at=0.6)
    cluster.apply_faults(plan)
    for i in range(8):
        client = clients[i % 4]
        client.write(b"op-%d" % i)
        assert client.read() == b"op-%d" % i
    cluster.run(until=max(cluster.now, 2.0))

    counters = cluster.env.trace.counters
    assert counters["process.crashes"] == 1
    assert counters["process.restarts"] == 1
    assert not cluster.servers[2].proto.rejoining
    assert cluster.servers[0].proto.ring.is_alive(2)
    cluster.history.close()
    ok, reason = check_register_history(cluster.history)
    assert ok, reason


def test_restart_of_live_server_is_a_noop():
    cluster = SimCluster.build(num_servers=3, seed=27)
    cluster.restart_server(0)
    assert cluster.servers[0].alive
    assert cluster.env.trace.counters.get("process.restarts", 0) == 0


def test_plan_rejects_restart_of_never_crashed_server():
    with pytest.raises(ConfigurationError):
        FaultPlan().restart("s0", at=0.5)


def test_overlapping_crash_recovery_cycles_stay_live():
    """Regression: two overlapping crash-recovery cycles deadlocked the
    ring.

    s3 crashes while s0 is down, so s3's durable snapshot names s0 dead;
    s0 is folded back in before s3 restarts.  Pre-fix, s3's fold-in
    merge unioned its stale snapshot view into the token's dead set and
    kept routing past the long-since-revived s0, so the token's circle
    never closed: every server stayed paused, s3 announced forever, and
    all client operations exhausted their retries.  A rejoiner now
    adopts the token's membership wholesale and contributes no
    exclusions of its own.
    """
    cluster = SimCluster.build(num_servers=4, seed=29, protocol=fast_retry())
    cluster.history = History()
    storage = AtomicStorage.over(cluster, home_server=1)
    storage.write(b"seed")
    cluster.crash_server(0)
    settle(cluster, 0.3)
    cluster.crash_server(3)  # while s0 is down: s3's snapshot has s0 dead
    settle(cluster, 0.3)
    cluster.restart_server(0)
    settle(cluster)  # s0 is folded back in before s3 returns
    for sid in (0, 1, 2):
        assert cluster.servers[sid].proto.ring.is_alive(0)
    cluster.restart_server(3)
    settle(cluster, 1.5)

    for sid, host in cluster.servers.items():
        proto = host.proto
        assert not proto.rejoining, f"s{sid} stuck rejoining"
        assert not proto.paused, f"s{sid} stuck paused"
        assert proto.ring.is_alive(0) and proto.ring.is_alive(3)
    storage.write(b"after-heal")
    assert storage.read() == b"after-heal"

    cluster.history.close()
    ok, reason = check_register_history(cluster.history)
    assert ok, reason


def test_restart_before_first_persist_keeps_initial_value():
    """A server that crashes before anything dirtied its snapshot store
    restores from ``None`` — and must come back with the cluster's
    configured ``initial_value``, not an empty register (reads before
    and after the restart would otherwise disagree)."""
    cluster = SimCluster.build(
        num_servers=1, seed=30, protocol=fast_retry(), initial_value=b"preloaded"
    )
    storage = AtomicStorage.over(cluster)
    assert storage.read() == b"preloaded"
    cluster.crash_server(0)
    cluster.restart_server(0)
    settle(cluster, 0.2)
    assert storage.read() == b"preloaded"
