"""The simulator's per-link state: one ``_Link`` per directed host pair.

Everything that is fixed per pair — route, hosts, both session
endpoints, timer handles — is resolved when the link is first used; what
changes is the channel *stamp* (bumped by crash detection and restart)
and the one receive callable minted for it.  These tests pin the
lifecycle around a cached link, and (an ``ast`` pass) that the per-frame
functions build no closures and the name-keyed tables stay gone.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.core.config import ProtocolConfig
from repro.runtime.sim_net import SimCluster
from repro.sim.faults import FaultPlan

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _fast_retry() -> ProtocolConfig:
    return ProtocolConfig(client_timeout=0.2, client_max_retries=40)


def test_restart_over_cached_links_drops_old_frames_by_stamp():
    """Frames s0 sent to s1's previous incarnation are still in the air
    (a 60 ms link delay) when s1 has crashed, been detected and come
    back: the cached link object survives, its stamp does not, and the
    stragglers die on the stamp instead of entering the fresh session."""
    cluster = SimCluster.build(num_servers=3, seed=5, protocol=_fast_retry())
    client = cluster.add_client(home_server=0)
    results = []
    client.write(b"warm", results.append)
    cluster.run_until(lambda: bool(results))
    links = cluster.reliable.links
    link = links["s0", "s1"]
    assert link.reverse is links["s1", "s0"] and link.tx is link.reverse.rx
    old_stamp, old_receive = link.stamp, link.receive

    start = cluster.now
    cluster.apply_faults(
        FaultPlan()
        .delay("s0", "s1", at=start, until=start + 0.1, extra=0.06)
        .crash("s1", at=start + 0.02)
        .restart("s1", at=start + 0.04)
    )
    seen = []
    deliver = cluster.reliable.deliver

    def recording_deliver(on_link, segment):
        if on_link is link and segment.is_data:
            seen.append((cluster.now, segment.seq))
        deliver(on_link, segment)

    cluster.reliable.deliver = recording_deliver
    writers = [client.client_id, client.add_virtual_client(), client.add_virtual_client()]
    for index, writer in enumerate(writers):
        client.write(b"in flight %d" % index, results.append, client_id=writer)
        cluster.run(until=cluster.now + 0.005)
    cluster.run_until(lambda: len(results) == 4)
    cluster.run(until=cluster.now + 2.0)

    assert all(result.ok for result in results)
    counters = cluster.env.trace.counters
    assert counters["process.restarts"] == 1
    assert counters["reliable.stale_dropped"] > 0
    # Same link object, new connection identity.
    assert links["s0", "s1"] is link
    assert link.stamp != old_stamp and link.receive is not old_receive
    assert link.stamp == link.reverse.stamp[::-1]
    # Nothing of the old incarnation got through, and the first segment
    # the restarted server accepted on this link opened a fresh session.
    after_restart = [seq for when, seq in seen if when >= start + 0.04]
    assert after_restart and after_restart[0] == 1


def test_client_added_after_its_servers_links_exist_is_reachable():
    cluster = SimCluster.build(num_servers=3, seed=6, protocol=_fast_retry())
    first = cluster.add_client(home_server=0)
    results = []
    first.write(b"first", results.append)
    cluster.run_until(lambda: bool(results))
    known = set(cluster.reliable.links)
    assert ("s0", "c0") in known and ("s0", "s1") in known

    late = cluster.add_client(home_server=0)
    late.read(results.append)
    late_virtual = late.add_virtual_client()
    cluster.run_until(lambda: len(results) == 2)
    late.write(b"second", results.append, client_id=late_virtual)
    cluster.run_until(lambda: len(results) == 3)
    assert [result.ok for result in results] == [True] * 3
    assert results[1].value == b"first"
    assert set(cluster.reliable.links) - known == {("c1", "s0"), ("s0", "c1")}


def test_retransmitted_batches_and_pure_acks_use_the_links_callable():
    """Fresh frames, retransmitted batch frames and pure acks all hand
    the fabric the receive callable cached on their link."""
    cluster = SimCluster.build(num_servers=3, seed=58, protocol=_fast_retry())
    assert cluster.batch_limit > 1
    clients = [cluster.add_client(home_server=0) for _ in range(4)]
    cluster.apply_faults(FaultPlan().drop("s0", "s1", p=1.0, at=0.0, until=0.2))
    frames = {"fresh": 0, "batch": 0, "ack": 0}
    links = cluster.reliable.links

    def watch(network):
        unicast = network.unicast

        def recording_unicast(src, dst, payload_bytes, message, deliver, on_sent=None):
            link = links[src.process_name, dst.process_name]
            assert deliver is link.receive
            assert (src, dst, network) == (link.src_nic, link.dst_nic, link.network)
            if isinstance(message, list):
                frames["batch"] += 1
            elif message.is_data:
                frames["fresh"] += 1
            else:
                frames["ack"] += 1
            unicast(src, dst, payload_bytes, message, deliver, on_sent)

        network.unicast = recording_unicast

    for network in cluster.topo.networks.values():
        watch(network)
    results = []
    for index, client in enumerate(clients):
        client.write(b"w%d" % index * 50, results.append)
    cluster.run_until(lambda: len(results) == len(clients))
    assert all(result.ok for result in results)
    counters = cluster.env.trace.counters
    assert counters["reliable.retransmits"] >= 2
    assert counters["reliable.acks"] == frames["ack"] > 0
    assert counters["reliable.batched_frames"] == frames["batch"] > 0
    assert frames["fresh"] > 0


# ----------------------------------------------------------------------
# Shape of the per-frame code (ast).
# ----------------------------------------------------------------------

#: Functions every frame passes through: they hand over bound methods
#: and argument tuples, never a closure built for the occasion.
_CLOSURE_FREE = {
    "sim/network.py": {("Network", "unicast"), ("Network", "_arrive")},
    "runtime/sim_net.py": {("SimCluster", "transmit"), ("_OutLoop", "pump")},
}

#: The name-keyed tables and the per-frame closure factory the links
#: replaced.
_DELETED_NAMES = {"_segment_deliver", "_retx_timers", "_ack_timers"}


def _methods(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield (node.name, item.name), item


def test_per_frame_functions_build_no_closures():
    for rel, wanted in _CLOSURE_FREE.items():
        found = dict(_methods(ast.parse((_SRC / rel).read_text())))
        assert wanted <= set(found), f"{rel}: missing {wanted - set(found)}"
        for key in wanted:
            function = found[key]
            nested = [
                node for node in ast.walk(function)
                if node is not function
                and isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            assert not nested, (
                f"{rel}: {'.'.join(key)} builds a closure per frame "
                f"(line {nested[0].lineno})"
            )


def test_name_keyed_link_tables_stay_deleted():
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.FunctionDef)
                else node.id if isinstance(node, ast.Name)
                else None
            )
            assert name not in _DELETED_NAMES, (
                f"{path.relative_to(_SRC)}:{node.lineno}: {name} is back; per-pair "
                "state lives on _Link"
            )
