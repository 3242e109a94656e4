"""Integration tests for the real asyncio TCP runtime (localhost).

The same protocol code as the simulator, over real sockets — including
the paper's connection-break failure detector and client failover.
"""

import asyncio
import gc
import socket
import struct
import warnings
from collections import Counter

import pytest

from repro.analysis.history import History
from repro.analysis.linearizability import check_register_history
from repro.core.config import ProtocolConfig
from repro.core.messages import ClientRead, OpId, StaleEpochNotice
from repro.core.server import ServerProtocol
from repro.errors import ProtocolError, StorageUnavailableError
from repro.runtime.asyncio_net import (
    _HELLO,
    _KIND_CLIENT,
    _KIND_HB,
    _KIND_REJOIN,
    _KIND_RING,
    _RECV_BYTES,
    AsyncCluster,
    _Link,
    _segment_frame,
)
from repro.transport.reliable import ReliableSession


def run(coro):
    return asyncio.run(coro)


def test_write_then_read_across_clients():
    async def scenario():
        cluster = AsyncCluster(3)
        await cluster.start()
        try:
            a = cluster.client(home_server=0)
            b = cluster.client(home_server=2)
            await a.write(b"hello")
            assert await b.read() == b"hello"
            await b.write(b"world")
            assert await a.read() == b"world"
            await a.close()
            await b.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_closed_connections_do_not_accumulate_inbound_writers():
    """Every accepted connection is tracked only until it is lost: 50
    client connect/close cycles (and the ring's own dials) must leave no
    closed connection behind on the node."""

    async def scenario():
        cluster = AsyncCluster(2)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            for i in range(50):
                client = cluster.client(home_server=0)
                await client.write(b"cycle-%d" % i)
                await client.close()
            for _ in range(100):  # let the last connection_lost run
                if len(node._inbound) <= 1:
                    break
                await asyncio.sleep(0.01)
            live = [link for link in node._inbound if not link.transport.is_closing()]
            # Live: the ring predecessor's connection (no client is open).
            assert len(node._inbound) == len(live) <= 1, (
                f"{len(node._inbound)} tracked, {len(live)} live"
            )
            assert node._client_links == {}
        finally:
            await cluster.stop()

    run(scenario())


def test_client_state_is_released_when_a_reply_write_fails():
    """Clients that send a request and reset the connection before the
    reply arrives: the reply write fails, and the node must keep neither
    a connection nor a session for any of them afterwards."""

    async def scenario():
        cluster = AsyncCluster(2)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            survivor = cluster.client(home_server=0)
            await survivor.write(b"v")
            for client_id in range(1, 21):
                _reader, writer = await asyncio.open_connection(*cluster.addresses[0])
                # Zero linger: close sends a reset, so the reply write fails.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                request = ReliableSession().send(ClientRead(OpId(client_id, 1)), 0.0)
                writer.write(
                    _HELLO.pack(_KIND_CLIENT, client_id, 0) + _segment_frame(request)
                )
                writer.transport.abort()
            for _ in range(100):
                if len(node._inbound) <= 2:
                    break
                await asyncio.sleep(0.01)
            assert await survivor.read() == b"v"
            clients = {key for key in node._peer_sessions if key >= 0}
            assert clients == set(), clients
            assert set(node._client_links) == {survivor.client_id}
            await survivor.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_control_sends_close_their_connection_on_every_path():
    """A control frame rides a connection of its own, which is closed
    whether the frame went out or writing it raised."""

    async def scenario():
        loop = asyncio.get_running_loop()
        sink = await loop.create_server(asyncio.Protocol, "127.0.0.1", 0)
        cluster = AsyncCluster(1)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            node.addresses[7] = sink.sockets[0].getsockname()
            dialled = []
            create_connection = loop.create_connection

            async def spy(*args, **kwargs):
                transport, protocol = await create_connection(*args, **kwargs)
                dialled.append(transport)
                return transport, protocol

            loop.create_connection = spy
            assert await node._send_control(7, StaleEpochNotice(epoch=0, sender=0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(ProtocolError):
                    await node._send_control(7, object())  # cannot be encoded
                gc.collect()
            del loop.create_connection
            assert len(dialled) == 2
            assert all(transport.is_closing() for transport in dialled)
            # Closed by the sender, not by a finaliser that found it open.
            assert not [w for w in caught if w.category is ResourceWarning]
        finally:
            await cluster.stop()
            sink.close()

    run(scenario())


def test_every_connection_kind_reads_in_bounded_buffers(monkeypatch):
    """Ring in and out, client (both ends), heartbeat (both ends) and
    control connections all ask the kernel for at most ``_RECV_BYTES``
    per read: asyncio's 256 KiB default makes throughput depend on heap
    layout (docs/perf.md, "PR 22")."""
    made = []
    connection_made = _Link.connection_made

    def record(link, transport):
        connection_made(link, transport)
        made.append(link)

    monkeypatch.setattr(_Link, "connection_made", record)

    async def scenario():
        cluster = AsyncCluster(3, fd="heartbeat")
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"bounded")
            assert await client.read() == b"bounded"
            # A control connection: a stale-epoch notice from the past
            # is ignored by its receiver.
            notice = StaleEpochNotice(epoch=0, sender=1)
            assert await cluster.nodes[1]._send_control(0, notice)
            await asyncio.sleep(0.3)  # beacons flow, the hello arrives
            # Each kind shows up on both ends: the dialled side and the
            # accepted side, which learns it from the hello.
            kinds = Counter(link.kind for link in made)
            for kind in (_KIND_RING, _KIND_CLIENT, _KIND_HB, _KIND_REJOIN):
                assert kinds[kind] >= 2, kinds
            assert all(link.transport.max_size == _RECV_BYTES for link in made)
            await client.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_a_paused_successor_stops_the_ring_pull_and_bounds_the_buffer(monkeypatch):
    """Backpressure lives in the successor link's flow control: while the
    successor stops reading, the predecessor stops pulling ring batches
    once its transport pauses, so its buffer stays within the high-water
    mark plus one frame and the rest of the work waits in the protocol's
    queues.  Once reading resumes every started operation completes and
    the history is atomic."""
    value_bytes, clients_count = 16 * 1024, 48

    async def scenario():
        loop = asyncio.get_running_loop()
        config = ProtocolConfig(client_timeout=30.0, client_max_retries=2)
        cluster = AsyncCluster(3, config)
        await cluster.start()
        try:
            history = History()
            clients = [cluster.client(home_server=0) for _ in range(clients_count)]

            async def write_then_read(client):
                value = b"%d:" % client.client_id + bytes(value_bytes)
                history.invoke(loop.time(), client.client_id, 0, "write", value)
                await client.write(value)
                history.respond(loop.time(), client.client_id, 0, None)
                history.invoke(loop.time(), client.client_id, 1, "read", None)
                got = await client.read()
                history.respond(loop.time(), client.client_id, 1, got)

            await write_then_read(clients[0])  # the ring links are up
            predecessor, successor = cluster.nodes[0], cluster.nodes[1]
            link = predecessor._ring_link
            (inbound,) = [l for l in successor._inbound if l.kind == _KIND_RING]
            # Fixed kernel buffers, smaller than the backlog, so that it
            # reaches the transport (yet above the loopback MSS: smaller
            # ones leave the resumed window to the persist timer).
            for end, option in ((link, socket.SO_SNDBUF), (inbound, socket.SO_RCVBUF)):
                end.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, option, 128 * 1024
                )
            inbound.transport.pause_reading()
            pulled_while_paused = []
            next_ring_batch = ServerProtocol.next_ring_batch

            def spy(proto, limit):
                if proto is predecessor.proto and link.paused:
                    pulled_while_paused.append(limit)
                return next_ring_batch(proto, limit)

            monkeypatch.setattr(ServerProtocol, "next_ring_batch", spy)
            tasks = [asyncio.create_task(write_then_read(c)) for c in clients[1:]]

            async def paused():
                while not link.paused:
                    await asyncio.sleep(0.01)

            await asyncio.wait_for(paused(), timeout=10.0)
            await asyncio.sleep(0.2)  # the ring keeps stepping meanwhile
            assert pulled_while_paused == []
            assert predecessor.proto.has_ring_work, "the backlog waits in the queues"
            _low, high = link.transport.get_write_buffer_limits()
            frame_bytes = predecessor._batch_depth * (value_bytes + 1024)
            assert link.transport.get_write_buffer_size() <= high + frame_bytes

            inbound.transport.resume_reading()
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=30.0)
            assert not link.paused and link is predecessor._ring_link
            history.close()
            ok, why = check_register_history(history, initial=b"")
            assert ok, why
            for client in clients:
                await client.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_many_interleaved_ops():
    async def scenario():
        cluster = AsyncCluster(4)
        await cluster.start()
        try:
            clients = [cluster.client(home_server=i) for i in range(4)]
            for i in range(12):
                writer = clients[i % 4]
                await writer.write(b"gen-%d" % i)
                reader = clients[(i + 1) % 4]
                assert await reader.read() == b"gen-%d" % i
            for c in clients:
                await c.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_concurrent_writers_converge():
    async def scenario():
        cluster = AsyncCluster(3)
        await cluster.start()
        try:
            clients = [cluster.client(home_server=i) for i in range(3)]
            await asyncio.gather(*(c.write(b"w%d" % i) for i, c in enumerate(clients)))
            values = await asyncio.gather(*(c.read() for c in clients))
            assert len(set(values)) == 1, f"diverged: {values}"
            for c in clients:
                await c.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_crash_failover_and_recovery():
    async def scenario():
        config = ProtocolConfig(client_timeout=0.3, client_max_retries=8)
        cluster = AsyncCluster(4, config)
        await cluster.start()
        try:
            client = cluster.client(home_server=1)
            await client.write(b"before")
            await cluster.crash_server(1)  # the client's home server
            await asyncio.sleep(0.05)
            await asyncio.wait_for(client.write(b"after"), timeout=10.0)
            other = cluster.client(home_server=3)
            assert await other.read() == b"after"
            await client.close()
            await other.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_all_servers_down_raises():
    async def scenario():
        config = ProtocolConfig(client_timeout=0.1, client_max_retries=2)
        cluster = AsyncCluster(2, config)
        await cluster.start()
        client = cluster.client()
        await client.write(b"v")
        await cluster.stop()
        with pytest.raises(StorageUnavailableError):
            await asyncio.wait_for(client.write(b"w"), timeout=10.0)
        await client.close()

    run(scenario())


def test_crashed_server_restarts_and_rejoins(tmp_path):
    """Crash → restart from the file-backed snapshot → rejoin → the
    recovered server itself serves the writes it missed while down."""
    async def scenario():
        config = ProtocolConfig(client_timeout=0.3, client_max_retries=20)
        cluster = AsyncCluster(3, config, durable_dir=str(tmp_path))
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"before")
            await cluster.crash_server(1)
            await asyncio.sleep(0.2)
            await asyncio.wait_for(client.write(b"while-down"), timeout=10.0)

            await cluster.restart_server(1)
            for _ in range(100):  # rejoin completes within the retry cadence
                if not cluster.nodes[1].proto.rejoining:
                    break
                await asyncio.sleep(0.1)
            assert not cluster.nodes[1].proto.rejoining
            # Caught up before serving: the missed write is installed.
            assert cluster.nodes[1].proto.value == b"while-down"
            # And the snapshot on disk survives the process in spirit:
            # it records the recovered state.
            assert cluster.nodes[1].durable.load().value == b"while-down"

            rejoined = cluster.client(home_server=1)
            assert await asyncio.wait_for(rejoined.read(), timeout=10.0) == b"while-down"
            await asyncio.wait_for(rejoined.write(b"after-rejoin"), timeout=10.0)
            assert await client.read() == b"after-rejoin"
            await client.close()
            await rejoined.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_restart_with_no_survivors_resolves_alone(tmp_path):
    """Every server died; the restarted one finds nothing but refused
    connections, concludes nobody is alive (the paper's failure model)
    and resumes alone from its snapshot — paced announcements, no spin."""
    async def scenario():
        config = ProtocolConfig(client_timeout=0.3, client_max_retries=20)
        cluster = AsyncCluster(3, config, durable_dir=str(tmp_path))
        await cluster.start()
        client = cluster.client(home_server=0)
        await client.write(b"precious")
        await client.close()
        await cluster.stop()

        await cluster.restart_server(1)
        for _ in range(100):
            if not cluster.nodes[1].proto.rejoining:
                break
            await asyncio.sleep(0.1)
        proto = cluster.nodes[1].proto
        assert not proto.rejoining and proto.alone
        assert proto.value == b"precious"
        survivor = cluster.client(home_server=1)
        assert await asyncio.wait_for(survivor.read(), timeout=10.0) == b"precious"
        await asyncio.wait_for(survivor.write(b"post"), timeout=10.0)
        assert await survivor.read() == b"post"
        await survivor.close()
        await cluster.stop()

    run(scenario())


def test_heartbeat_mode_serves_reads_and_writes():
    """Basic service under the imperfect detector: no faults, no churn."""

    async def scenario():
        cluster = AsyncCluster(3, fd="heartbeat")
        await cluster.start()
        try:
            a = cluster.client(home_server=0)
            b = cluster.client(home_server=1)
            await a.write(b"hb-hello")
            assert await b.read() == b"hb-hello"
            await b.write(b"hb-world")
            assert await a.read() == b"hb-world"
            await a.close()
            await b.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_heartbeat_mode_crash_detected_and_excluded_by_quorum():
    """A crash under fd="heartbeat" is detected by silence, not by a
    connection break: the survivors install a quorum-backed view that
    excludes the dead server (epoch moves) and keep serving."""

    async def scenario():
        from repro.fd.heartbeat import HeartbeatConfig

        hb = HeartbeatConfig(
            period=0.05, timeout=0.3, check_interval=0.05, propose_grace=0.15
        )
        config = ProtocolConfig(client_timeout=0.5, client_max_retries=30)
        cluster = AsyncCluster(3, config=config, fd="heartbeat", heartbeat=hb)
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"before-crash")
            await cluster.crash_server(2)

            async def excluded():
                survivors = [cluster.nodes[0].proto, cluster.nodes[1].proto]
                while not all(
                    p.installed_epoch >= 1 and 2 in p.ring.dead and not p.paused
                    for p in survivors
                ):
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(excluded(), timeout=10.0)
            await client.write(b"after-crash")
            assert await client.read() == b"after-crash"
            await client.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_heartbeat_mode_restart_rejoins_through_sponsor():
    """A restarted server under the imperfect detector announces itself
    and is folded back in by a revived-marked quorum reconfiguration; it
    then serves the latest committed value, not its stale snapshot."""

    async def scenario():
        from repro.fd.heartbeat import HeartbeatConfig

        hb = HeartbeatConfig(
            period=0.05, timeout=0.3, check_interval=0.05, propose_grace=0.15
        )
        config = ProtocolConfig(client_timeout=0.5, client_max_retries=30)
        cluster = AsyncCluster(3, config=config, fd="heartbeat", heartbeat=hb)
        await cluster.start()
        try:
            client = cluster.client(home_server=0)
            await client.write(b"epoch-0-value")
            await cluster.crash_server(2)

            async def excluded():
                while not all(
                    2 in cluster.nodes[i].proto.ring.dead for i in (0, 1)
                ):
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(excluded(), timeout=10.0)
            await client.write(b"written-while-down")
            await cluster.restart_server(2)

            async def rejoined():
                proto = cluster.nodes[2].proto
                while proto.rejoining or proto.paused:
                    await asyncio.sleep(0.05)

            await asyncio.wait_for(rejoined(), timeout=10.0)
            # The rejoiner serves the write it missed, straight away.
            direct = cluster.client(home_server=2)
            assert await direct.read() == b"written-while-down"
            epochs = {cluster.nodes[i].proto.installed_epoch for i in range(3)}
            assert len(epochs) == 1 and epochs.pop() >= 2
            await client.close()
            await direct.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_heartbeat_mode_leased_reads_are_served_locally_with_no_ring_traffic():
    """``read_leases`` over real sockets: once every node holds fresh
    grants from every peer (they ride the raw heartbeat stream), reads
    are answered from local state — counted as lease-local by the
    protocol, with not one segment entering any ring session."""

    async def scenario():
        config = ProtocolConfig(
            read_leases=True, view_quorum=True,
            client_timeout=0.5, client_max_retries=30,
        )
        cluster = AsyncCluster(3, config=config, fd="heartbeat")
        await cluster.start()
        try:
            clients = [cluster.client(home_server=i) for i in range(3)]
            await clients[0].write(b"leased")
            protos = [node.proto for node in cluster.nodes.values()]

            async def warm():
                while not all(p.views.lease_valid and not p.has_ring_work for p in protos):
                    await asyncio.sleep(0.02)

            await asyncio.wait_for(warm(), timeout=10.0)

            def ring_segments():
                return sum(n._ring_session.stats.sent for n in cluster.nodes.values())

            def stat(name):
                return sum(getattr(p, name) for p in protos)

            sent = ring_segments()
            local = stat("stats_lease_local_reads")
            fallbacks = stat("stats_lease_fallbacks")
            for _ in range(5):
                for client in clients:
                    assert await client.read() == b"leased"
            assert stat("stats_lease_local_reads") == local + 15
            assert stat("stats_lease_fallbacks") == fallbacks
            assert ring_segments() == sent, "a leased read costs zero ring messages"
            # The driver's event tallies: every node counted a first
            # grant from both of its peers.
            for node in cluster.nodes.values():
                assert node.counters["lease_granted"] >= 2
            for client in clients:
                await client.close()
        finally:
            await cluster.stop()

    run(scenario())


def test_pure_acks_wait_ack_delay_and_coalesce():
    """The runtime honours ``ReliableConfig.ack_delay``: a burst of
    inbound frames on a link with no reverse traffic costs one pure ack
    after the delay, reverse traffic inside the delay carries the ack
    for free, and a closed connection gets nothing."""
    from repro.runtime.asyncio_net import _ack_later
    from repro.transport.reliable import ReliableConfig, ReliableSession

    class Writer:
        def __init__(self):
            self.frames, self.closing = [], False

        def write(self, data):
            self.frames.append(data)

        def is_closing(self):
            return self.closing

    async def scenario():
        delay = 0.02
        receiver = ReliableSession(ReliableConfig(ack_delay=delay))
        sender = ReliableSession()
        writer, armed = Writer(), set()

        def inbound(payload):
            receiver.on_segment(sender.send(payload, 0.0), 0.0)
            assert receiver.ack_owed
            _ack_later(armed, receiver, writer)

        for i in range(5):
            inbound(i)
        assert writer.frames == [] and armed == {receiver}
        await asyncio.sleep(delay * 3)
        assert len(writer.frames) == 1 and not armed
        assert receiver.stats.acks_sent == 1 and not receiver.ack_owed

        inbound(5)
        receiver.send("reply", 0.0)  # reverse traffic piggybacks the ack
        await asyncio.sleep(delay * 3)
        assert len(writer.frames) == 1 and not armed

        inbound(6)
        writer.closing = True
        await asyncio.sleep(delay * 3)
        assert len(writer.frames) == 1 and not armed

    run(scenario())


def test_delayed_acks_drain_every_ring_send_window():
    """End to end: ring links carry no reverse traffic, so only the
    delayed pure acks can drain a ring session's send window — after a
    burst of writes every window is empty and no ack is still owed."""
    async def scenario():
        cluster = AsyncCluster(3)
        await cluster.start()
        try:
            clients = [cluster.client(home_server=i) for i in range(3)]
            for round_ in range(5):
                await asyncio.gather(
                    *(c.write(b"w%d" % round_) for c in clients)
                )
            await asyncio.sleep(0.1)
            for node in cluster.nodes.values():
                assert node._ring_session.in_flight == 0
                inbound = [
                    s for key, s in node._peer_sessions.items() if key < 0
                ]
                assert inbound
                for session in inbound:
                    assert not session.ack_owed
                    assert session.stats.acks_sent > 0
            for c in clients:
                await c.close()
        finally:
            await cluster.stop()

    run(scenario())
