"""Seeded simulator traces, pinned by digest.

Each case runs a small seeded cluster with every event recorded and
hashes what the simulator did: the repr of every trace event, the sorted
trace counters, the number of events fired and the final clock.  The
four cases cover the paths a simulator optimisation can move: the
determinism property's fault schedule (seed 1234), the heartbeat
detector with read leases under crash, restart and clock skew, the
erasure-coded backend (k=2) under the heartbeat detector, and the
sharded block store.

A digest changes only in a deliberate trace-epoch change (ROADMAP
item 6: a change that spends the tie-order budget on purpose), and that
change says so in CHANGES.md.  The digests were re-pinned once so far,
by the change that booked receive ports at send (two events per frame),
made timers lazy, gave both runtimes one ack rule and reset the fairness
counters where a pull drains the forward queue.  Anything else that
moves a digest changed what the simulator does.  The digests must not depend on the
interpreter's hash seed either; CI reruns this file under two values of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import ProtocolConfig
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.sharded import ShardedServerHost, add_shard_client
from repro.runtime.sim_net import SimCluster
from repro.sim.faults import FaultPlan
from tests.helpers import run_faulted_cluster

#: sha256 per case; see the module docstring before changing one.
DIGESTS = {
    "faulted": "b0e66e06cec0e39406d73c50d02569131a247c1b3db38bd8b919ee380453f849",
    "heartbeat_leases": "c40ab04a5405b0272708482e5fe254550b85e447ef1ff8eb9c004c21ed975b9b",
    "coded_heartbeat": "58532441303596381d8874515df47bb3d6bab92cf7ea2d670f8e6efd88b571df",
    "sharded": "7441d142bcf6a812c482f3c28a68cabfa2e063a74c1f4ec39201b143384317b6",
}


def _digest(cluster: SimCluster) -> str:
    trace = cluster.env.trace
    digest = hashlib.sha256()
    for event in trace.events:
        digest.update(repr(event).encode())
        digest.update(b"\n")
    digest.update(repr(sorted(trace.counters.items())).encode())
    digest.update(repr((cluster.env.scheduler.events_fired, cluster.now)).encode())
    return digest.hexdigest()


def _repeat(cluster: SimCluster, ops: int, pause: float, start: float, op) -> None:
    """Run ``op(i, done)`` for i in 0..ops-1, each ``pause`` seconds
    after the previous one completed, the first at ``start``."""
    state = {"i": 0}

    def issue() -> None:
        op(state["i"], done)

    def done(result) -> None:
        state["i"] += 1
        if state["i"] < ops:
            cluster.env.scheduler.schedule(pause, issue)

    cluster.env.scheduler.schedule(start, issue)


def _paced_clients(
    cluster: SimCluster, ops: int, value_size: int, writers: int = 1, pause: float = 0.02
) -> None:
    """Four client machines, one per home server, each with ``writers``
    writers and one reader doing ``ops`` operations ``pause`` apart."""
    for server_id in range(4):
        host = cluster.add_client(home_server=server_id)
        for index in range(writers + 1):
            cid = host.add_virtual_client()

            def op(i, done, host=host, cid=cid, write=index < writers) -> None:
                if write:
                    value = (b"%d:%d" % (cid, i)).ljust(value_size, b".")
                    host.write(value, done, client_id=cid)
                else:
                    host.read(done, client_id=cid)

            _repeat(cluster, ops, pause, 0.001 * cid, op)


def _heartbeat_cluster(protocol: ProtocolConfig, seed: int, **kwargs) -> SimCluster:
    cluster = SimCluster.build(
        num_servers=4, seed=seed, fd="heartbeat", protocol=protocol, **kwargs
    )
    cluster.env.trace.record_events = True
    return cluster


def _heartbeat_leases() -> SimCluster:
    cluster = _heartbeat_cluster(
        ProtocolConfig(
            client_timeout=0.3, client_max_retries=20, view_quorum=True, read_leases=True
        ),
        seed=21,
    )
    _paced_clients(cluster, ops=12, value_size=64)
    cluster.apply_faults(
        FaultPlan()
        .clock_skew("s2", 0.002, at=0.05)
        .crash("s1", at=0.1)
        .restart("s1", at=0.3)
        .partition([["s0", "s3"], ["s1", "s2"]], at=0.5, heal_at=0.6)
    )
    cluster.run(until=1.5)
    return cluster


def _coded_heartbeat() -> SimCluster:
    """Saturating closed-loop 64 KiB writes, k=2 of n=4, one message per
    frame: forward queues fill from several origins at once, so every
    choice of the fair scheduler shows in the trace."""
    cluster = _heartbeat_cluster(
        ProtocolConfig(
            client_timeout=0.3, client_max_retries=20, view_quorum=True,
            value_coding="coded", coding_k=2, coding_n=4, batch_max_messages=1,
        ),
        seed=22,
        # perfbench's coded_large timings: slow enough that saturation
        # alone raises no suspicion.
        heartbeat=HeartbeatConfig(
            period=0.05, timeout=0.3, check_interval=0.025, propose_grace=0.08,
            lease_duration=0.2, clock_drift_bound=0.02,
        ),
    )
    _paced_clients(cluster, ops=400, value_size=64 * 1024, writers=8, pause=0.0005)
    cluster.apply_faults(
        FaultPlan()
        .crash("s3", at=0.08)
        .restart("s3", at=0.25)
        .drop("s0", "s1", p=0.2, at=0.0, until=0.3)
    )
    cluster.run(until=1.0)
    return cluster


def _sharded() -> SimCluster:
    cluster = SimCluster.build(
        num_servers=4,
        seed=23,
        protocol=ProtocolConfig(client_timeout=0.3, client_max_retries=20),
        host_factory=lambda c, server_id: ShardedServerHost(c, server_id, 4),
    )
    cluster.env.trace.record_events = True
    for i in range(4):
        host = add_shard_client(cluster, home_server=i)
        for block in range(4):
            client_id = host.add_virtual_client()

            def op(i, done, host=host, block=block, cid=client_id) -> None:
                if (cid + i) % 2:
                    host.read_block(block, done, client_id=cid)
                else:
                    host.write_block(block, b"%d:%d" % (cid, i), done, client_id=cid)

            _repeat(cluster, 6, 0.01, 0.0005 * client_id, op)
    cluster.apply_faults(FaultPlan().crash("s2", at=0.04))
    cluster.run(until=0.6)
    return cluster


RUNS = {
    "faulted": lambda: run_faulted_cluster(1234),
    "heartbeat_leases": _heartbeat_leases,
    "coded_heartbeat": _coded_heartbeat,
    "sharded": _sharded,
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_seeded_trace_digest_is_pinned(case):
    assert _digest(RUNS[case]()) == DIGESTS[case], (
        f"the {case!r} trace moved: only a deliberate trace-epoch change "
        "may re-pin a digest"
    )


if __name__ == "__main__":
    for name in sorted(RUNS):
        cluster = RUNS[name]()
        print(name, _digest(cluster), cluster.env.scheduler.events_fired,
              dict(sorted(cluster.env.trace.counters.items())))
