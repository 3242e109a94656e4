"""One batch-depth rule for every frame a ring link sends.

``ring_batch_depth`` is the single statement of how many ring messages
share a wire frame.  Fresh frames, retransmissions and reconnect replays
must all obey it, in the simulator and over TCP alike — before, the
simulator's retransmit timer ignored the shared-NIC exception and the
asyncio runtime ignored the ring-size cap.
"""

import pytest

from repro import SimCluster
from repro.core.config import ProtocolConfig
from repro.core.ring import RingView
from repro.runtime.asyncio_net import AsyncServerNode
from repro.runtime.interface import ring_batch_depth
from repro.sim.faults import FaultPlan


@pytest.mark.parametrize(
    "knob, servers, dedicated, depth",
    [
        (4, 2, True, 4),
        (4, 4, True, 4),  # 16 // 4: the committed benchmarks' geometry
        (4, 5, True, 3),
        (4, 8, True, 2),
        (4, 32, True, 1),  # never below one message per frame
        (8, 2, True, 8),
        (1, 4, True, 1),
        (4, 4, False, 1),  # ring shares its port with client replies
    ],
)
def test_depth_is_the_knob_capped_by_ring_size_on_a_dedicated_link(
    knob, servers, dedicated, depth
):
    assert ring_batch_depth(knob, servers, dedicated_link=dedicated) == depth


def test_shared_nic_retransmissions_are_not_batched():
    """On the shared topology a k-message ring frame takes a k-fold share
    of the port client replies ride; a recovering link must refill the
    pipe message by message, like the fresh traffic it replaces."""
    cluster = SimCluster.build(
        num_servers=3, topology="shared", seed=58,
        protocol=ProtocolConfig(client_timeout=0.5, client_max_retries=20),
    )
    assert cluster.batch_limit == 1
    clients = [cluster.add_client(home_server=0) for _ in range(4)]
    cluster.apply_faults(FaultPlan().drop("s0", "s1", p=1.0, at=0.0, until=0.2))
    results = []
    for index, client in enumerate(clients):
        client.write(b"w%d" % index * 50, results.append)
    cluster.run_until(lambda: len(results) == len(clients))
    assert all(result.ok for result in results)
    counters = cluster.env.trace.counters
    assert counters["reliable.retransmits"] >= 2, "several segments must recover at once"
    assert counters.get("reliable.batched_frames", 0) == 0


def test_both_runtimes_frame_the_same_ring_alike():
    ring = RingView.initial(8)
    node = AsyncServerNode(0, ring, addresses={})
    cluster = SimCluster.build(num_servers=8, seed=1)
    assert node._batch_depth == cluster.batch_limit == 2
