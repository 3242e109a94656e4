"""Fine-grained tests of the simulator runtime glue.

These pin behaviours that the throughput results depend on: NIC-exact
accounting of every message, per-connection reply fairness, virtual
clients sharing one machine NIC, client-reply routing, and the reliable
session layer under every unicast.
"""

import pytest

from repro import AtomicStorage, SimCluster
from repro.core.config import ProtocolConfig
from repro.core.messages import payload_size
from repro.errors import ConfigurationError
from repro.sim.faults import FaultPlan


def test_dual_topology_separates_ring_and_client_traffic():
    cluster = SimCluster.build(num_servers=2, seed=51)
    storage = AtomicStorage.over(cluster)
    storage.write(b"x" * 1000)
    s0 = cluster.servers[0]
    assert s0.nic_ring is not s0.nic_client
    assert s0.nic_ring.tx.messages_total > 0, "pre-writes used the server net"
    trace = cluster.env.trace.counters
    assert trace["srv.unicasts"] > 0 and trace["cli.unicasts"] > 0


def test_shared_topology_uses_one_nic():
    cluster = SimCluster.build(num_servers=2, topology="shared", seed=52)
    storage = AtomicStorage.over(cluster)
    storage.write(b"y" * 1000)
    s0 = cluster.servers[0]
    assert s0.nic_ring is s0.nic_client
    assert "lan.unicasts" in cluster.env.trace.counters


def test_wire_bytes_accounting_matches_messages():
    cluster = SimCluster.build(num_servers=2, seed=53)
    storage = AtomicStorage.over(cluster)
    storage.write(b"z" * 2000)
    # Every unicast charged its wire cost: totals are plausible and
    # strictly exceed the raw payload bytes (framing overhead).
    trace = cluster.env.trace.counters
    assert trace["srv.wire_bytes"] > 2 * 2000  # pre-write crossed 2 links
    assert trace["cli.wire_bytes"] > 2000  # request + ack


def test_virtual_clients_share_one_machine():
    cluster = SimCluster.build(num_servers=2, seed=54)
    host = cluster.add_client(home_server=0)
    v1 = host.add_virtual_client()
    v2 = host.add_virtual_client()
    assert cluster.client_name(v1) == host.name == cluster.client_name(v2)
    results = []
    host.write(b"a" * 100, results.append, client_id=v1)
    host.write(b"b" * 100, results.append, client_id=v2)
    cluster.run_until(lambda: len(results) == 2)
    assert all(r.ok for r in results)
    # Both logical clients transmitted through the same NIC.
    assert host.nic.tx.messages_total >= 2


def test_crashed_client_replies_are_dropped():
    cluster = SimCluster.build(num_servers=2, seed=55)
    host = cluster.add_client(home_server=0)
    results = []
    host.write(b"w" * 64, results.append)
    # Let the request reach the server, then crash before the ack.
    cluster.run(until=0.0005)
    assert cluster.servers[0].proto.stats_writes_initiated == 1
    host.crash()
    cluster.run(until=0.5)
    assert results == [], "a crashed client never observes completions"
    # The servers still committed the write (write-all semantics).
    reader = AtomicStorage.over(cluster, home_server=1)
    assert reader.read() == b"w" * 64


def test_unknown_home_server_rejected():
    cluster = SimCluster.build(num_servers=2, seed=56)
    with pytest.raises(ConfigurationError):
        cluster.add_client(home_server=9)


def test_ring_tx_serialises_one_message_at_a_time():
    cluster = SimCluster.build(num_servers=3, seed=57)
    storage = AtomicStorage.over(cluster)
    for i in range(5):
        storage.write(bytes([i]) * 500)
    s0 = cluster.servers[0]
    elapsed = cluster.now
    # The tx port can never have been busy for more than wall time.
    assert s0.nic_ring.tx.busy_time <= elapsed + 1e-9


def test_payload_of_respects_custom_sizers():
    from repro.runtime.sim_net import _payload_of
    from repro.baselines.abd import StoreAck

    assert _payload_of(StoreAck((1, 2))) == StoreAck((1, 2)).payload_bytes()
    from repro.core.messages import ClientRead, OpId

    assert _payload_of(ClientRead(OpId(1, 1))) == payload_size(ClientRead(OpId(1, 1)))


def test_reliable_layer_retransmits_through_a_drop_window():
    """A ring drop window loses frames; the session layer must resend
    them (trace counter) and the write must still complete — exactly the
    scenario the old chaos envelope forbade the generator to draw."""
    cluster = SimCluster.build(
        num_servers=3, seed=58,
        protocol=ProtocolConfig(client_timeout=0.5, client_max_retries=20),
    )
    client = cluster.add_client(home_server=0)
    plan = FaultPlan().drop("s0", "s1", p=1.0, at=0.0, until=0.2)
    cluster.apply_faults(plan)
    results = []
    client.write(b"through the storm" * 10, results.append)
    cluster.run_until(lambda: bool(results))
    assert results[0].ok
    counters = cluster.env.trace.counters
    assert counters["nemesis.drops"] > 0, "the window must actually drop"
    assert counters["reliable.retransmits"] > 0
    reader = AtomicStorage.over(cluster, home_server=2)
    assert reader.read() == b"through the storm" * 10


def test_reliable_layer_suppresses_nemesis_duplicates():
    """Frames duplicated by the nemesis arrive once at the protocol."""
    cluster = SimCluster.build(num_servers=2, seed=59)
    client = cluster.add_client(home_server=0)
    plan = FaultPlan().duplicate("c0", "s0", p=1.0, at=0.0, until=5.0,
                                 symmetric=True)
    cluster.apply_faults(plan)
    results = []
    client.write(b"once only", results.append)
    cluster.run_until(lambda: bool(results))
    assert results[0].ok
    assert cluster.env.trace.counters["nemesis.dup_deliveries"] > 0
    assert cluster.env.trace.counters["reliable.dups_suppressed"] > 0


def test_sessions_to_a_crashed_server_are_abandoned():
    """The failure detector firing resets every session touching the
    dead server, cancelling retransmission timers — the simulator's TCP
    reset.  The run then quiesces instead of retransmitting forever."""
    cluster = SimCluster.build(
        num_servers=3, seed=60,
        protocol=ProtocolConfig(client_timeout=0.2, client_max_retries=10),
    )
    client = cluster.add_client(home_server=0)
    results = []
    client.write(b"pre-crash", results.append)
    cluster.run_until(lambda: bool(results))
    cluster.crash_server(0)
    client.write(b"post-crash", results.append)
    # Must terminate: abandoned sessions stop rearming timers.
    cluster.env.run_until_idle(max_events=200_000)
    assert len(results) == 2 and results[1].ok
    for (local, peer), link in cluster.reliable.links.items():
        if "s0" in (local, peer):
            assert link.tx.in_flight == 0 and link.retx_timer is None


def test_late_sends_to_a_dead_server_still_quiesce():
    """Regression: abandon_peer runs once at FD-notify, but a client
    retry can round-robin back onto the dead server *afterwards*,
    re-filling the session.  The retransmit timer must notice the peer
    is dead and reset instead of re-arming at rto_max forever — else
    run_until_idle never returns after any crash-bearing run."""
    cluster = SimCluster.build(
        num_servers=3, seed=62,
        protocol=ProtocolConfig(client_timeout=0.2, client_max_retries=6),
    )
    client = cluster.add_client(home_server=0)
    cluster.crash_server(0)
    cluster.run(until=0.05)  # detection fired; abandon sweep is done
    results = []
    client.write(b"after the sweep", results.append)
    cluster.env.run_until_idle(max_events=100_000)
    assert results and results[0].ok
    for (local, peer), link in cluster.reliable.links.items():
        assert link.tx.in_flight == 0, (local, peer)
