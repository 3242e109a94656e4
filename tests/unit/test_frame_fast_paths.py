"""Per-frame work a healthy frame does not need, and what stands in for it.

The simulator skips three pieces of work on the common path: the
nemesis for links it never impaired, the post-step hook under the
perfect detector, and any ring pull when a server has no ring work.
Each skip must leave the simulation unchanged (the seeded digests in
``tests/integration/test_trace_digest.py`` pin that); these tests pin
where each one applies.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.messages import OpId, PreWrite
from repro.core.tags import Tag
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


def test_the_fair_counters_reset_where_a_pull_drains_the_forward_queue():
    """One idle rule for both runtimes: no runtime pulls an empty ring
    link, so an idle link touches nothing, and the nb_msg counters reset
    (pseudocode line 55) in the pull that forwards the last queued
    pre-write."""
    cluster = SimCluster.build(
        num_servers=3, seed=1, protocol=ProtocolConfig(batch_max_messages=1)
    )
    host = cluster.servers[0]
    proto = host.proto
    assert not proto.has_ring_work
    proto.fair.nb_msg.update({1: 3, 2: 1})
    assert host._ring_source() is None
    assert proto.fair.nb_msg == {1: 3, 2: 1}, "an idle link pulls nothing"

    # Two pre-writes from s2 (s0's predecessor) in the forward queue.
    for seq in (1, 2):
        proto.on_ring_message(PreWrite(Tag(seq, 2), b"v", OpId(9, seq)), 2)
    assert len(proto.fair) == 2
    assert host._ring_source() is not None  # forwards the first
    assert proto.fair.nb_msg == {1: 3, 2: 2}
    assert host._ring_source() is not None  # forwards the last: drained
    assert len(proto.fair) == 0 and proto.fair.nb_msg == {}
