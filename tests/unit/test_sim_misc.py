"""Unit tests for the remaining simulator pieces: RNG streams, tracing,
processes, fault plans, topology routing and the round model engine."""

import pytest

from repro.errors import ConfigurationError, CrashedProcessError, SimulationError
from repro.rounds.model import RoundModel, RoundNode, RoundSend
from repro.sim.env import SimEnv
from repro.sim.faults import FaultPlan
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.topology import build_dual_network, build_shared_network
from repro.sim.trace import TraceRecorder


# -- RNG ----------------------------------------------------------------


def test_rng_streams_are_deterministic():
    a = RngRegistry(42).stream("x")
    b = RngRegistry(42).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_are_independent():
    reg = RngRegistry(42)
    x = reg.stream("x")
    _ = [x.random() for _ in range(100)]  # draining x must not affect y
    y1 = reg.stream("y").random()
    y2 = RngRegistry(42).stream("y").random()
    assert y1 == y2


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_rng_fork():
    child1 = RngRegistry(7).fork("w")
    child2 = RngRegistry(7).fork("w")
    assert child1.stream("s").random() == child2.stream("s").random()


# -- Trace ----------------------------------------------------------------


def test_trace_counters():
    trace = TraceRecorder()
    trace.count("x")
    trace.count("x", 4)
    assert trace.counters["x"] == 5
    trace.reset_counters()
    assert trace.counters["x"] == 0


def test_trace_events_only_when_enabled():
    off = TraceRecorder()
    off.emit(1.0, "boom")
    assert off.events == []
    on = TraceRecorder(record_events=True)
    on.emit(1.0, "boom", "detail")
    on.emit(2.0, "other")
    assert [e.kind for e in on.events] == ["boom", "other"]
    assert on.last("other").time == 2.0
    assert on.last("missing") is None


# -- Processes and fault plans -------------------------------------------


def test_process_crash_fires_listeners_once():
    env = SimEnv()
    proc = SimProcess(env, "p")
    crashes = []
    proc.on_crash(crashes.append)
    proc.crash()
    proc.crash()
    assert len(crashes) == 1
    assert not proc.alive
    with pytest.raises(CrashedProcessError):
        proc.check_alive()


def test_fault_plan_sequential_schedule():
    plan = FaultPlan.sequential(["a", "b"], first_at=1.0, spacing=0.5)
    assert [(c.process_name, c.time) for c in plan.crashes] == [("a", 1.0), ("b", 1.5)]


def test_fault_plan_applies_crashes():
    env = SimEnv()
    procs = {"a": SimProcess(env, "a"), "b": SimProcess(env, "b")}
    FaultPlan.sequential(["a", "b"], 1.0, 1.0).apply(env, procs)
    env.run(until=1.5)
    assert not procs["a"].alive and procs["b"].alive
    env.run_until_idle()
    assert not procs["b"].alive


def test_fault_plan_unknown_process():
    env = SimEnv()
    with pytest.raises(ConfigurationError):
        FaultPlan().crash("ghost", 1.0).apply(env, {})


# -- Topology --------------------------------------------------------------


def test_dual_network_routes():
    env = SimEnv()
    topo = build_dual_network(env, ["s0", "s1"], ["c0"])
    src, dst, net = topo.nic_for("s0", "s1")
    assert net.name == "srv"
    src, dst, net = topo.nic_for("s0", "c0")
    assert net.name == "cli"
    src, dst, net = topo.nic_for("c0", "s1")
    assert net.name == "cli"


def test_shared_network_routes():
    env = SimEnv()
    topo = build_shared_network(env, ["s0", "s1"], ["c0"])
    assert topo.nic_for("s0", "s1")[2].name == "lan"
    assert topo.nic_for("s0", "c0")[2].name == "lan"


def test_topology_rejects_duplicates_and_unknowns():
    env = SimEnv()
    topo = build_dual_network(env, ["s0"], [])
    with pytest.raises(ConfigurationError):
        topo.add_process("s0", ["srv"])
    with pytest.raises(ConfigurationError):
        topo.nic_for("s0", "ghost")


# -- Round model engine -----------------------------------------------------


class _Echo(RoundNode):
    def __init__(self, name, peer=None):
        self.name = name
        self.peer = peer
        self.got = []

    def on_round(self, round_no, inbox):
        if "net" in inbox:
            self.got.append((round_no, inbox["net"]))
        if self.peer and round_no == 1:
            return [RoundSend(self.peer, "net", f"hi from {self.name}")]
        return []


def test_round_model_delivers_next_round():
    model = RoundModel()
    a, b = _Echo("a", peer="b"), _Echo("b")
    model.add(a)
    model.add(b)
    model.run(2)
    assert b.got == [(2, "hi from a")]


def test_round_model_collisions_destroy():
    model = RoundModel()
    target = _Echo("t")
    model.add(target)
    model.add(_Echo("x", peer="t"))
    model.add(_Echo("y", peer="t"))
    model.run(3)
    assert target.got == []
    assert model.collisions == 1


def test_round_model_collision_queue_policy():
    model = RoundModel(collision_policy="queue")
    target = _Echo("t")
    model.add(target)
    model.add(_Echo("x", peer="t"))
    model.add(_Echo("y", peer="t"))
    model.run(3)
    assert [r for r, _m in target.got] == [2, 3], "one delivery per round"


def test_round_model_rejects_unknown_destination():
    model = RoundModel()
    model.add(_Echo("a", peer="ghost"))
    with pytest.raises(SimulationError):
        model.run(1)


def test_round_model_rejects_bad_policy():
    with pytest.raises(SimulationError):
        RoundModel(collision_policy="wat")
