"""Unit tests for the network fabric: unicast path and multicast collisions.

A healthy unicast is two events — the transmit port's finish, which
books the receive port, and the delivery — and still charges transmit,
propagation and receive time in full (tests/property/test_prop_rx_clock.py
holds the booked port to the staged one it replaced)."""

import pytest

from repro.errors import SimulationError
from repro.sim.env import SimEnv
from repro.sim.network import Network
from repro.sim.nic import Nic
from repro.sim.wire import WireModel


def _net(env, bandwidth=8_000.0, prop=0.01):
    wire = WireModel(app_header=0, segment_overhead=0, min_frame=1, mss=10**9)
    net = Network(env, "lan", wire, propagation_delay=prop)
    nics = [Nic(env, f"n{i}", bandwidth) for i in range(3)]
    for nic in nics:
        net.attach(nic)
    return net, nics


def test_unicast_charges_tx_prop_rx():
    env = SimEnv()
    net, nics = _net(env)
    got = []
    net.unicast(nics[0], nics[1], 500, "hello", lambda m: got.append((m, env.now)))
    env.run_until_idle()
    # 0.5s tx + 0.01 prop + 0.5s rx.
    assert got == [("hello", pytest.approx(1.01))]
    assert env.scheduler.events_fired == 2  # transmit finish, delivery
    assert nics[1].rx.bytes_total == 500 and nics[1].rx.busy_time == pytest.approx(0.5)


def test_unicast_fifo_between_pair():
    env = SimEnv()
    net, nics = _net(env)
    got = []
    net.unicast(nics[0], nics[1], 100, "a", lambda m: got.append((m, env.now)))
    net.unicast(nics[0], nics[1], 100, "b", lambda m: got.append((m, env.now)))
    env.run_until_idle()
    # b leaves at 0.2 and arrives at 0.21, as a finishes receiving.
    assert got == [("a", pytest.approx(0.21)), ("b", pytest.approx(0.31))]
    assert env.scheduler.events_fired == 4


def test_receive_port_serialises_senders_and_holds_frames_while_paused():
    env = SimEnv()
    net, nics = _net(env)
    got = []
    net.unicast(nics[0], nics[2], 100, "a", lambda m: got.append((m, env.now)))
    net.unicast(nics[1], nics[2], 100, "b", lambda m: got.append((m, env.now)))
    env.scheduler.run(until=0.15)  # a is being received, b waits for it
    nics[2].rx.pause()
    env.scheduler.run(until=0.5)
    assert got == [("a", pytest.approx(0.21))]
    nics[2].rx.resume()
    env.run_until_idle()
    # Both arrive at 0.11; a occupies the port to 0.21, and b, queued
    # by the pause, is received from the resume on.
    assert got == [("a", pytest.approx(0.21)), ("b", pytest.approx(0.6))]


def test_unicast_requires_attached_nics():
    env = SimEnv()
    net, nics = _net(env)
    stranger = Nic(env, "x", 8_000)
    with pytest.raises(SimulationError):
        net.unicast(nics[0], stranger, 10, "m", lambda m: None)


def test_nic_cannot_attach_twice():
    env = SimEnv()
    net, nics = _net(env)
    other = Network(env, "other")
    with pytest.raises(SimulationError):
        other.attach(nics[0])


def test_multicast_delivers_to_all_without_contention():
    env = SimEnv()
    net, nics = _net(env)
    got = []
    net.multicast(nics[0], [nics[1], nics[2]], 100, "m", lambda d, m: got.append(d.name))
    env.run_until_idle()
    assert sorted(got) == ["n1", "n2"]
    assert env.trace.counters["lan.multicasts"] == 1
    assert env.trace.counters.get("lan.collisions", 0) == 0


def test_overlapping_multicasts_collide_and_retry():
    env = SimEnv()
    net, nics = _net(env)
    got = []
    net.multicast(nics[0], [nics[2]], 500, "a", lambda d, m: got.append(m))
    net.multicast(nics[1], [nics[2]], 500, "b", lambda d, m: got.append(m))
    env.run_until_idle()
    # Both frames eventually deliver (after backoff), and at least one
    # collision was recorded.
    assert sorted(got) == ["a", "b"]
    assert env.trace.counters["lan.collisions"] >= 1


def test_crashed_receiver_drops_frames():
    env = SimEnv()
    net, nics = _net(env)

    class FakeOwner:
        alive = False

    nics[1].owner = FakeOwner()
    got = []
    net.unicast(nics[0], nics[1], 100, "m", got.append)
    env.run_until_idle()
    assert got == []
    assert env.scheduler.events_fired == 2  # transmit finish, staged arrival


def test_receiver_crash_drops_a_booked_frame_still_on_the_wire():
    env = SimEnv()
    net, nics = _net(env)

    class Owner:
        alive = True

    owner = nics[1].owner = Owner()
    got = []
    net.unicast(nics[0], nics[1], 100, "m", got.append)
    env.scheduler.run(until=0.105)  # booked at 0.1, arrives at 0.11
    owner.alive = False
    nics[1].rx.purge()
    env.run_until_idle()
    assert got == [] and nics[1].rx.messages_total == 0


def test_crashed_sender_loses_in_flight_frame():
    env = SimEnv()
    net, nics = _net(env)

    class Owner:
        alive = True

    owner = Owner()
    nics[0].owner = owner
    got = []
    net.unicast(nics[0], nics[1], 500, "m", got.append)
    env.scheduler.run(until=0.2)  # mid-transmission
    owner.alive = False
    env.run_until_idle()
    assert got == []
    assert env.scheduler.events_fired == 1  # the transmit finish only


def test_unicast_counters_and_events_with_and_without_recording():
    """Counter names are precomputed and the hop events are skipped when
    recording is off; neither may change what a recording run sees."""
    for record in (False, True):
        env = SimEnv(record_events=record)
        net, nics = _net(env)
        net.unicast(nics[0], nics[1], 500, "m", lambda m: None)
        net.unicast(nics[1], nics[2], 100, "m", lambda m: None)
        env.run_until_idle()
        assert env.trace.counters == {"lan.unicasts": 2, "lan.wire_bytes": 600}
        kinds = [(e.kind, e.details) for e in env.trace.events]
        if record:
            assert ("net.tx", ("lan", "n0", "n1", 500)) in kinds
            assert ("net.rx", ("lan", "n1", 500)) in kinds
            assert len(kinds) == 4
        else:
            assert kinds == []
