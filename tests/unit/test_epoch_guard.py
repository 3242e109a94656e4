"""Unit tests for epoch-guarded, quorum-installed ring views.

Drives :class:`ServerProtocol` in ``view_quorum`` mode (the imperfect
failure detector's operating mode) by hand: suspicion events via
``on_suspect``/``on_unsuspect``, proposals via ``propose_reconfig`` (in
the runtimes a grace timer calls it), and message delivery between
chosen servers — which makes partitions trivial to model: just don't
deliver across the cut.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.messages import (
    ClientRead,
    ClientWrite,
    OpId,
    PreWrite,
    ReconfigToken,
    StaleEpochNotice,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.tags import Tag


def make_servers(n: int) -> list[ServerProtocol]:
    ring = RingView.initial(n)
    config = ProtocolConfig(view_quorum=True)
    return [ServerProtocol(i, ring, config) for i in range(n)]


def pump(servers, alive=None, rounds=100):
    """Deliver ring + directed traffic among ``alive`` until quiet."""
    living = set(alive) if alive is not None else {s.server_id for s in servers}
    for _ in range(rounds):
        moved = False
        for server in servers:
            if server.server_id not in living:
                continue
            directed = server.next_directed_message()
            if directed is not None:
                dst, message = directed
                if dst in living:
                    servers[dst].on_ring_message(message, server.server_id)
                moved = True
                continue
            message = server.next_ring_message()
            if message is not None:
                dst = server.successor
                if dst in living:
                    servers[dst].on_ring_message(message, server.server_id)
                moved = True
        if not moved:
            return
    raise AssertionError("did not quiesce")


def exclude(servers, victim: int, alive):
    """Suspect ``victim`` everywhere alive and run one proposal round."""
    for sid in alive:
        servers[sid].on_suspect(victim)
    for sid in alive:
        servers[sid].propose_reconfig()
    pump(servers, alive=alive)


def test_suspicion_pauses_and_defers_reads():
    servers = make_servers(4)
    s0 = servers[0]
    s0.on_suspect(2)
    assert s0.paused
    replies = s0.on_client_message(7, ClientRead(OpId(7, 0)))
    assert replies == [], "reads deferred while a view member is suspect"
    assert len(s0.deferred_reads) == 1


def test_quorum_refusal_stalls_instead_of_installing():
    servers = make_servers(4)
    s0 = servers[0]
    s0.on_suspect(1)
    s0.on_suspect(2)
    s0.propose_reconfig()
    assert s0.stats_quorum_stalls == 1
    assert s0.paused and not s0.control_queue and not s0.outbox
    assert s0.installed_epoch == 0, "a minority never moves the epoch"


def test_exclusion_installs_with_quorum_and_resumes():
    servers = make_servers(4)
    alive = [0, 1, 2]
    exclude(servers, 3, alive)
    for sid in alive:
        proto = servers[sid]
        assert proto.installed_epoch == 1
        assert proto.ring.dead == {3}
        assert not proto.paused
    # All survivors agree on which install heads epoch 1.
    installs = {servers[sid].view_log[-1] for sid in alive}
    assert len(installs) == 1


def test_concurrent_proposals_arbitrate_to_lowest_coordinator():
    servers = make_servers(4)
    alive = [0, 1, 2]
    for sid in alive:
        servers[sid].on_suspect(3)
    # Everyone proposes concurrently; the promise machinery must let
    # exactly one install through (ties break toward the lowest id).
    for sid in reversed(alive):
        servers[sid].propose_reconfig()
    pump(servers, alive=alive)
    for sid in alive:
        proto = servers[sid]
        assert proto.installed_epoch == 1
        assert proto.view_log == [(1, 0, proto.view_log[0][2])]
        assert not proto.paused


def test_stale_epoch_data_is_rejected_and_notice_queued():
    servers = make_servers(4)
    exclude(servers, 3, [0, 1, 2])
    s0 = servers[0]
    # Install-time fencing already told the excluded server once...
    assert s0.views._stale_notified.get(3) == 1
    # ...so exercise the data-path guard with a straggler from a peer
    # that was never fenced: an epoch-0 frame after epoch 1 installed.
    stale = PreWrite(Tag(9, 2), b"zombie", OpId(9, 0), (), epoch=0)
    s0.on_ring_message(stale, sender=2)
    assert s0.stats_stale_epoch_dropped == 1
    assert s0.tag != Tag(9, 2), "stale write never installs"
    assert list(s0.outbox) == [(2, StaleEpochNotice(1, 0))]
    # The notice is deduplicated per installed epoch.
    s0.on_ring_message(stale, sender=2)
    assert len(s0.outbox) == 1


def test_stale_notice_demotes_to_rejoining_and_sponsor_folds_back():
    servers = make_servers(4)
    alive = [0, 1, 2]
    # Commit a write the excluded server never saw.
    exclude(servers, 3, alive)
    op = OpId(40, 0)
    servers[0].on_client_message(40, ClientWrite(op, b"post-exclusion"))
    pump(servers, alive=alive)
    assert servers[0].value == b"post-exclusion"
    s3 = servers[3]
    assert s3.value != b"post-exclusion"

    s3.on_ring_message(StaleEpochNotice(1, 0), sender=0)
    assert s3.rejoining and s3.paused
    # The excluded server's heartbeats keep flowing: the survivors
    # withdraw their suspicion, which already queues a re-admission...
    for sid in alive:
        servers[sid].on_unsuspect(3)
    # ...and its announcement reaches a sponsor, whose next proposal
    # carries the stale server as revived so the merge catches it up.
    sponsor = servers[1]
    announce = s3.next_rejoin_announce()
    assert announce is None, "runtime targets the announcement"
    s3.queue_rejoin_announce(1)
    dst, request = s3.next_directed_message()
    assert dst == 1 and request.epoch == 0
    sponsor.on_ring_message(request, sender=3)
    assert sponsor.stats_rejoins_sponsored == 1
    assert sponsor.reconcile_due, "sponsorship rides the proposal pipeline"
    sponsor.propose_reconfig()
    pump(servers)
    assert not s3.rejoining and not s3.paused
    assert s3.installed_epoch == servers[0].installed_epoch == 2
    assert s3.value == b"post-exclusion", "caught up by the revived merge"
    read = s3.on_client_message(41, ClientRead(OpId(41, 0)))
    assert read and read[0].message.value == b"post-exclusion"


def test_future_epoch_token_demotes_stale_receiver():
    servers = make_servers(4)
    s3 = servers[3]
    token = ReconfigToken(
        nonce=5,
        epoch=3,
        coordinator=0,
        dead=(),
        tag=Tag.ZERO,
        value=b"",
        pending=(),
        completed_ops=(),
    )
    s3.on_ring_message(token, sender=0)
    assert s3.rejoining, "a proposal from beyond installed+1 proves staleness"
    assert s3.stats_epoch_rejected_reconfigs == 1


def test_partitioned_minority_confirms_view_after_heal():
    """2-2 split: neither side has quorum, both stall; after the heal a
    membership-preserving confirm reconfiguration moves the epoch and
    resumes everyone — proof the old view is still live."""
    servers = make_servers(4)
    for sid, other in ((0, 2), (0, 3), (1, 2), (1, 3)):
        servers[sid].on_suspect(other)
        servers[other].on_suspect(sid)
    for server in servers:
        server.propose_reconfig()
        assert server.paused
        assert server.stats_quorum_stalls == 1
    # Heal: every suspicion withdrawn; confirm proposals run.
    for sid, other in ((0, 2), (0, 3), (1, 2), (1, 3)):
        servers[sid].on_unsuspect(other)
        servers[other].on_unsuspect(sid)
    for server in servers:
        server.propose_reconfig()
    pump(servers)
    for server in servers:
        assert not server.paused
        assert server.installed_epoch == 1
        assert server.ring.dead == frozenset()
        assert server.stats_confirm_reconfigs >= 1 or server.view_log


def test_suspected_coordinator_token_is_refused():
    servers = make_servers(4)
    s1 = servers[1]
    s1.on_suspect(0)
    token = ReconfigToken(
        nonce=1,
        epoch=1,
        coordinator=0,
        dead=(3,),
        tag=Tag.ZERO,
        value=b"",
        pending=(),
        completed_ops=(),
    )
    s1.on_ring_message(token, sender=0)
    assert s1.stats_epoch_rejected_reconfigs == 1
    assert s1.installed_epoch == 0 and not s1.control_queue
