"""Unit tests for crash handling and ring reconfiguration.

Driven through the lossless in-memory ring harness; crashes are
modelled as perfect-FD notifications delivered to every survivor (the
messages a crashed server would have sent are simply never produced,
because the harness stops pulling from it).
"""

from tests.helpers import RingHarness

from repro.core.messages import OpId, WriteAck
from repro.core.tags import Tag


class CrashableHarness(RingHarness):
    """RingHarness where crashed servers stop sending and receiving."""

    def __init__(self, n, config=None):
        super().__init__(n, config)
        self.dead: set[int] = set()

    def crash(self, server_id: int) -> None:
        self.dead.add(server_id)
        for server in self.servers:
            if server.server_id not in self.dead and server.server_id != server_id:
                self.replies.extend(server.on_server_crash(server_id))

    def pump(self, rounds: int = 1) -> None:
        for _ in range(rounds):
            for server in self.servers:
                if server.server_id in self.dead:
                    continue
                message = server.next_ring_message()
                if message is not None:
                    self.in_flight.append((server.successor, message))
            deliveries, self.in_flight = self.in_flight, []
            for dst, message in deliveries:
                if dst in self.dead:
                    continue  # died with the crashed server
                self.replies.extend(self.servers[dst].on_ring_message(message))
                self.replies.extend(self.servers[dst].drain_replies())

    def pump_until_quiet(self, max_rounds: int = 300) -> None:
        for _ in range(max_rounds):
            alive = [s for s in self.servers if s.server_id not in self.dead]
            if not self.in_flight and not any(s.has_ring_work for s in alive):
                return
            self.pump()
        raise AssertionError("ring did not quiesce")

    def alive_servers(self):
        return [s for s in self.servers if s.server_id not in self.dead]


def test_idle_crash_reconfigures_ring():
    h = CrashableHarness(4)
    h.crash(2)
    h.pump_until_quiet()
    for server in h.alive_servers():
        assert server.ring.dead == {2}
        assert not server.paused
    assert h.server(1).successor == 3, "predecessor spliced around the crash"


def test_write_completes_despite_crash_of_midpath_server():
    h = CrashableHarness(4)
    op = h.client_write(0, b"v")
    h.pump(1)  # pre-write at s1
    h.crash(2)  # the next hop dies before forwarding
    h.pump_until_quiet()
    assert len(h.acks_for(op)) == 1
    for server in h.alive_servers():
        assert server.value == b"v"
        assert not server.pending


def test_write_with_prewrite_lost_at_crashed_server():
    h = CrashableHarness(4)
    op = h.client_write(0, b"v")
    h.pump(1)  # s1 holds the pre-write in its forward queue
    # s1 crashes while the message is queued there: the only remaining
    # copy is s0's pending entry; the merge must resurrect it.
    h.crash(1)
    h.pump_until_quiet()
    assert len(h.acks_for(op)) == 1
    for server in h.alive_servers():
        assert server.value == b"v"


def test_orphaned_write_of_crashed_origin_completes():
    """A write whose *origin* dies mid-protocol must still commit
    (its pre-write circled through survivors), so blocked reads are
    eventually answered."""
    h = CrashableHarness(4)
    h.client_write(1, b"orphan", client=77)
    h.pump(3)  # s2 and s3 forwarded the pre-write: both hold it pending
    read_op = h.client_read(3)
    assert h.acks_for(read_op) == [], "read waits on the pending write"
    h.crash(1)  # origin dies; nobody will send its commit
    h.pump_until_quiet()
    acks = h.acks_for(read_op)
    assert len(acks) == 1, "read must not block forever"
    assert acks[0].message.value == b"orphan"
    for server in h.alive_servers():
        assert not server.pending


def test_client_retry_after_origin_crash_is_deduplicated():
    h = CrashableHarness(4)
    op = OpId(55, 0)
    from repro.core.messages import ClientWrite

    h.server(1).on_client_message(55, ClientWrite(op, b"v"))
    h.pump(2)  # pre-write out; origin will die before acking
    h.crash(1)
    h.pump_until_quiet()
    # Client times out and retries the SAME op at another server.
    h.replies.extend(h.server(3).on_client_message(55, ClientWrite(op, b"v")))
    h.pump_until_quiet()
    acks = [r for r in h.acks_for(op) if isinstance(r.message, WriteAck)]
    assert len(acks) == 1, "retry must be deduplicated, not re-executed"
    assert sum(s.stats_writes_initiated for s in h.alive_servers()) <= 1


def test_sequential_crashes_down_to_one_server():
    h = CrashableHarness(5)
    for round_no, victim in enumerate([1, 2, 3, 0]):
        op = h.client_write(4, b"epoch-%d" % round_no, client=60 + round_no)
        h.pump_until_quiet()
        assert len(h.acks_for(op)) == 1
        h.crash(victim)
        h.pump_until_quiet()
    survivor = h.server(4)
    assert survivor.alone
    op = h.client_write(4, b"final", client=99)
    assert len(h.acks_for(op)) == 1, "single survivor serves writes locally"
    read_op = h.client_read(4)
    assert h.acks_for(read_op)[0].message.value == b"final"


def test_crash_during_commit_phase_still_acks_everyone():
    h = CrashableHarness(4)
    op = h.client_write(0, b"v")
    h.pump(4)  # pre-write circled; commit is now circulating
    h.crash(2)
    h.pump_until_quiet()
    assert len(h.acks_for(op)) == 1
    for server in h.alive_servers():
        assert server.value == b"v"
        assert not server.pending


def test_reads_deferred_during_reconfig_get_answered():
    h = CrashableHarness(4)
    h.client_write(0, b"v")
    h.pump_until_quiet()
    h.crash(1)
    # While paused (before the token finishes), reads are deferred.
    read_op = h.client_read(3)
    h.pump_until_quiet()
    acks = h.acks_for(read_op)
    assert len(acks) == 1 and acks[0].message.value == b"v"


def test_monotone_state_across_reconfig():
    h = CrashableHarness(4)
    h.client_write(0, b"a")
    h.pump_until_quiet()
    h.crash(3)
    h.pump_until_quiet()
    op = h.client_write(1, b"b", client=70)
    h.pump_until_quiet()
    assert len(h.acks_for(op)) == 1
    tags = {s.tag for s in h.alive_servers()}
    assert len(tags) == 1
    assert tags.pop() > Tag(1, 0)


def test_two_crashes_in_quick_succession():
    h = CrashableHarness(5)
    op = h.client_write(0, b"v")
    h.pump(1)
    h.crash(2)
    h.crash(3)  # second crash before the first reconfig completes
    h.pump_until_quiet()
    assert len(h.acks_for(op)) == 1
    for server in h.alive_servers():
        assert server.ring.dead == {2, 3}
        assert not server.paused
        assert server.value == b"v"


# ----------------------------------------------------------------------
# Crash recovery: the rejoin handshake at the protocol level.
# ----------------------------------------------------------------------


def test_rejoin_handshake_folds_restarted_server_back_in():
    from repro.core.server import ServerProtocol

    h = CrashableHarness(4)
    h.client_write(0, b"v1", client=70)
    h.pump_until_quiet()
    snapshot = h.server(2).snapshot()  # what the durable store held
    h.crash(2)
    h.pump_until_quiet()
    h.client_write(0, b"v2", client=71)  # committed while s2 is down
    h.pump_until_quiet()

    # "Restart": a fresh protocol restored from the snapshot.
    restored = ServerProtocol.restore(2, (0, 1, 2, 3), snapshot)
    assert restored.rejoining and restored.paused
    assert restored.value == b"v1"  # pre-crash state only
    h.servers[2] = restored
    h.dead.discard(2)

    # The announcement reaches a sponsor; the revived-marked
    # reconfiguration circulates the grown ring and resumes the
    # rejoiner with the merged state.
    restored.queue_rejoin_announce(0)
    sponsor, announce = restored.next_directed_message()
    assert sponsor == 0
    h.replies.extend(h.server(0).on_ring_message(announce))
    h.pump_until_quiet()

    assert not restored.rejoining and not restored.paused
    assert restored.value == b"v2", "caught up before serving"
    for server in h.alive_servers():
        assert server.ring.is_alive(2)
    assert h.server(0).stats_rejoins_sponsored == 1

    # A duplicate (retried) announcement after the fold-in is dropped.
    h.replies.extend(h.server(1).on_ring_message(announce))
    h.pump_until_quiet()
    assert h.server(1).stats_rejoins_sponsored == 0

    # The rejoined server participates fully: a write through it
    # circulates the grown ring and commits everywhere.
    op = h.client_write(2, b"v3", client=72)
    h.pump_until_quiet()
    assert len(h.acks_for(op)) == 1
    for server in h.alive_servers():
        assert server.value == b"v3"
        assert not server.pending


def test_rejoin_request_to_paused_sponsor_is_deferred():
    from repro.core.messages import RejoinRequest
    from repro.core.server import ServerProtocol

    h = CrashableHarness(5)
    h.client_write(0, b"v1", client=80)
    h.pump_until_quiet()
    snapshot = h.server(3).snapshot()
    h.crash(3)
    # Deliver the crash notifications but do NOT let the merge finish:
    # the sponsor is mid-reconfiguration (paused) when the announcement
    # lands.
    sponsor = h.server(2)  # predecessor of 3: the coordinator
    assert sponsor.paused
    restored = ServerProtocol.restore(3, (0, 1, 2, 3, 4), snapshot)
    h.servers[3] = restored
    h.dead.discard(3)
    h.replies.extend(sponsor.on_ring_message(RejoinRequest(3)))
    assert sponsor.ring.is_alive(3) is False, "deferred, not spliced yet"
    h.pump_until_quiet()
    # After its own reconfiguration resumed it, the sponsor processed
    # the deferred request and folded the rejoiner back in.
    assert not restored.rejoining
    assert all(s.ring.is_alive(3) for s in h.alive_servers())
