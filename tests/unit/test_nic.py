"""Unit tests for the NIC port model (one message at a time)."""

from repro.sim.env import SimEnv
from repro.sim.nic import Nic, Port


def test_port_serialises_messages():
    env = SimEnv()
    port = Port(env, "tx", bandwidth_bps=8_000)  # 1000 bytes/s
    done = []
    port.submit(500, lambda: done.append(env.now))
    port.submit(500, lambda: done.append(env.now))
    env.run_until_idle()
    assert done == [0.5, 1.0]
    assert port.bytes_total == 1000
    assert port.messages_total == 2


def test_port_idle_callback_fires_on_drain():
    env = SimEnv()
    port = Port(env, "tx", bandwidth_bps=8_000)
    idles = []
    port.on_idle(lambda: idles.append(env.now))
    port.submit(100, lambda: None)
    port.submit(100, lambda: None)
    env.run_until_idle()
    assert idles == [0.2]  # only when the queue fully drains


def test_idle_callback_may_submit_more_work():
    env = SimEnv()
    port = Port(env, "tx", bandwidth_bps=8_000)
    sent = []

    def refill():
        if len(sent) < 3:
            port.submit(100, lambda: sent.append(env.now))

    port.on_idle(refill)
    port.submit(100, lambda: sent.append(env.now))
    env.run_until_idle()
    assert len(sent) == 3  # initial + refills until the guard stops at 3


def test_purge_drops_queued_but_not_inflight():
    env = SimEnv()
    port = Port(env, "tx", bandwidth_bps=8_000)
    done = []
    port.submit(100, lambda: done.append("first"))
    port.submit(100, lambda: done.append("second"))
    port.purge()  # second is queued; first is mid-transmission
    env.run_until_idle()
    assert done == ["first"]


def test_busy_time_and_utilization():
    env = SimEnv()
    port = Port(env, "tx", bandwidth_bps=8_000)
    port.submit(500, lambda: None)
    env.run_until_idle()
    env.scheduler.run(until=1.0)
    assert abs(port.busy_time - 0.5) < 1e-9  # utilization 0.5 over 1 s


def test_nic_has_independent_tx_rx():
    env = SimEnv()
    nic = Nic(env, "n0", bandwidth_bps=8_000)
    done = []
    nic.tx.submit(500, lambda: done.append(("tx", env.now)))
    nic.rx.submit(500, lambda: done.append(("rx", env.now)))
    env.run_until_idle()
    # Full duplex: both complete at 0.5s, neither delayed the other.
    assert done == [("tx", 0.5), ("rx", 0.5)]
