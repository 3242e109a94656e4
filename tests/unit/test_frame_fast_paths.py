"""Per-frame work a healthy frame does not need, and what stands in for it.

The simulator skips three pieces of work on the common path: the
nemesis for links it never impaired, the post-step hook under the
perfect detector, and the empty ``next_ring_batch`` pull when a server
has no ring work.  Each skip must leave the simulation unchanged (the
seeded digests in ``tests/integration/test_trace_digest.py`` pin that);
these tests pin where each one applies.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.runtime.sim_net import SimCluster
from repro.sim.faults import FaultPlan
from repro.sim.nemesis import Nemesis


def _write_some(cluster: SimCluster, count: int = 4) -> None:
    client = cluster.add_client(home_server=0)
    results = []
    for index in range(count):
        client.write(b"v%d" % index, results.append)
        cluster.run_until(lambda: len(results) == index + 1)
    assert all(result.ok for result in results)


def test_only_frames_on_impaired_links_enter_the_nemesis(monkeypatch):
    routed = []
    route = Nemesis.route

    def recording_route(self, network, src, dst, *rest):
        routed.append((src.process_name, dst.process_name))
        route(self, network, src, dst, *rest)

    monkeypatch.setattr(Nemesis, "route", recording_route)
    cluster = SimCluster.build(num_servers=3, seed=1)
    _write_some(cluster)
    assert routed == [] and cluster.env.trace.counters["srv.unicasts"] > 0

    cluster.apply_faults(
        FaultPlan().delay("s1", "s2", at=cluster.now, until=cluster.now + 1.0, extra=0.001)
    )
    _write_some(cluster)
    assert routed and set(routed) == {("s1", "s2")}
    assert set(cluster.nemesis.impaired) == {("s1", "s2")}


def test_the_post_step_hook_runs_only_under_the_heartbeat_detector(monkeypatch):
    steps = []
    hook = SimCluster.after_protocol_step

    def recording_hook(self, host):
        steps.append(host.name)
        hook(self, host)

    monkeypatch.setattr(SimCluster, "after_protocol_step", recording_hook)
    _write_some(SimCluster.build(num_servers=3, seed=1))
    assert steps == []
    _write_some(SimCluster.build(num_servers=3, seed=1, fd="heartbeat"))
    assert steps


def test_an_idle_ring_link_still_resets_the_fair_counters():
    """With nothing to send, the pump skips ``next_ring_batch`` but not
    its one effect: the queue handler saw an empty forward queue, so the
    nb_msg counters reset (pseudocode line 55)."""
    cluster = SimCluster.build(num_servers=3, seed=1, protocol=ProtocolConfig())
    host = cluster.servers[0]
    proto = host.proto
    assert not proto.has_ring_work
    proto.fair.nb_msg.update({1: 3, 2: 1})
    assert host._ring_source() is None
    assert proto.fair.nb_msg == {}

    # Paused, the queue handler never looks at the forward queue.
    proto.fair.nb_msg[1] = 2
    proto.paused = True
    assert host._ring_source() is None
    assert proto.fair.nb_msg == {1: 2}
