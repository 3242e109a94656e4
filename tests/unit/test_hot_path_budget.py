"""Deterministic budgets for the simulator's interpreter work per operation.

Wall clock is ungated because it is noisy on shared hosts; the number of
Python-level and C-level calls the interpreter makes is not — it repeats
exactly per seed.  Two shapes are counted, each warmed up and then
profiled (``call``/``c_call`` events) over a fixed simulated window:

* ``write``: a 4-server ring saturated by 128 closed-loop 4 KiB writers
  (the shape of perfbench's ``ring_write``);
* ``open``: open-loop Poisson arrivals at half saturation, 1,400 writes
  and 5,600 reads per simulated second over 64-client pools per machine
  (the shape of perfbench's ``mixed_open``), so the read path and an
  unsaturated ring are counted too.

Each call is filed under a layer, so a perf change names the layer it
attacks and shows that layer's count fall: a Python call under the module
of the code it runs, a C call under the module of the frame that makes
it, and generated code — ``@record`` constructors (:mod:`repro.records`
``exec``s them) and ``NamedTuple`` constructors — under its caller.
Modules map to layers by ``perfbench/tracing.py``'s ``layer_of_module``
(anything outside ``repro`` is ``workload``).  Every layer has a budget,
and the total budget is their sum.

The simulated behaviour is pinned beside each count: the window must fire
exactly the events (and complete exactly the operations) it did before,
so a "saving" that changes what the simulator does fails here rather
than passing as a speed-up.

The count is taken in a fresh interpreter (this file run as a script, as
``perfbench/worker.py`` is for its workloads): ``sys.setprofile`` sees
every call the process makes, and a pytest process that has run
Hypothesis carries its ``gc.callbacks`` hook — four extra call events
whenever a collection happens to land inside the window (docs/perf.md,
"PR 21").
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.sim_net import SimCluster
from repro.sim.rng import derive_seed

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from perfbench.tracing import layer_of_module  # noqa: E402

SERVERS = 4
VALUE = bytes(4096)

# -- write: closed-loop saturation ---------------------------------------

MACHINES_PER_SERVER = 2
CLIENTS_PER_MACHINE = 16
THINK_S = 0.0005

# -- open: Poisson reads beside writes -----------------------------------

#: Per server: (kind, logical clients, arrivals per simulated second).
OPEN_MACHINES = (("write", 64, 1400.0 / SERVERS), ("read", 64, 5600.0 / SERVERS))

#: Simulated seconds of warm-up and of counted window per shape.
WINDOWS = {"write": (0.5, 0.3), "open": (0.5, 0.2)}

#: Calls per completed operation over the window (seed 11), per layer:
#: the budget is the count plus 10 %, room for features, not for scans
#: or per-frame lookups.  ``write`` history (all layers): 1,927 with the
#: ``EventHandle.__lt__`` heap, dataclass tags and scanned pending set;
#: about 1,130 with tuple heap entries, tuple tags and ``PendingSet``;
#: about 835 with per-link state resolved once, closure-free NIC stages
#: and ``dict.copy()`` snapshots; 817.2 with ``payload_size`` a dict
#: dispatch; 813.2 with the rejoin announcement read inline and a drain
#: after every ring pull; 809.2 after the asyncio runtime's record
#: changes; 646.4 with cancelled timers compacted off the heap, no empty
#: ring pulls, healthy links past the nemesis, no perfect-detector
#: post-step hook, and call-free handles, wire sizes and effect
#: dispatch; 469.8 with one send call and one receive call per frame,
#: two events per frame, lazy timers, one ack rule and the heap entry as
#: the event handle; 320.8 with one pass per ring message in
#: ``ServerProtocol`` (``core.server`` 233.0 → 117.0, filed as above);
#: 317.8 with the empty commit pull skipped; 314.8 with no timer
#: effects (``core.client`` 15.1 → 12.0: a request carries its timeout,
#: and one reset ends every operation).
#: ``open``: 489.3, then 381.6, then 239.9, then 199.9 (``core.server``
#: 85.4 → 54.0), then 195.5 (``core.client`` 15.9 → 12.1).
LAYER_BUDGET = {
    "write": {
        "core.client": 13.2, "core.durable": 2.2, "core.fairness": 37.4,
        "core.messages": 16.6, "core.pending": 18.7, "core.server": 128.7,
        "runtime.sim_net": 66.3, "sim.env": 0.1, "sim.events": 26.6,
        "sim.network": 14.6, "sim.process": 1.2, "sim.trace": 0.6,
        "sim.wire": 0.2, "transport.reliable": 21.4, "workload": 2.3,
    },
    "open": {
        "core.client": 13.3, "core.durable": 1.9, "core.fairness": 9.1,
        "core.messages": 7.1, "core.pending": 4.8, "core.server": 59.5,
        "core.tags": 0.1, "core.values": 1.8, "runtime.sim_net": 54.2,
        "sim.env": 0.1, "sim.events": 26.9, "sim.network": 14.8,
        "sim.process": 1.2, "sim.trace": 0.3, "sim.wire": 0.1,
        "transport.reliable": 11.5, "workload": 10.0,
    },
}  # fmt: skip

#: The whole-window budget per shape: the sum of its layer budgets.
CALLS_PER_OP_BUDGET = {
    shape: round(sum(layers.values()), 1) for shape, layers in LAYER_BUDGET.items()
}

#: What each window did (seed 11): events fired and operations completed.
#: The event counts were re-pinned once, by the trace-epoch change that
#: booked receive ports at send and made timers lazy (was 10,200 and
#: 17,134 for the same operations).
EVENTS_IN_WINDOW = {"write": 6_500, "open": 10_570}
OPS_IN_WINDOW = {"write": 848, "open": 1_361}


def _saturated_cluster(seed: int):
    cluster = SimCluster.build(num_servers=SERVERS, seed=seed, initial_value=VALUE)
    completed = [0]

    def writer(host, client_id: int):
        def issue() -> None:
            host.write(VALUE, done, client_id=client_id)

        def done(result) -> None:
            assert result.ok
            completed[0] += 1
            cluster.env.scheduler.schedule(THINK_S, issue)

        return issue

    for server_id in range(SERVERS):
        for _ in range(MACHINES_PER_SERVER):
            host = cluster.add_client(home_server=server_id)
            clients = [host.client_id] + [
                host.add_virtual_client() for _ in range(CLIENTS_PER_MACHINE - 1)
            ]
            for client_id in clients:
                writer(host, client_id)()
    return cluster, completed


def _open_loop_cluster(seed: int):
    """Seeded Poisson arrivals per machine; an arrival with no free
    client in the pool waits in the machine's backlog."""
    cluster = SimCluster.build(num_servers=SERVERS, seed=seed, initial_value=VALUE)
    scheduler = cluster.env.scheduler
    completed = [0]

    def machine(host, kind: str, clients: int, rate: float, rng: random.Random):
        free = [host.client_id] + [host.add_virtual_client() for _ in range(clients - 1)]
        backlog = [0]

        def issue(client_id: int) -> None:
            if kind == "write":
                host.write(VALUE, lambda result: done(client_id, result), client_id=client_id)
            else:
                host.read(lambda result: done(client_id, result), client_id=client_id)

        def done(client_id: int, result) -> None:
            assert result.ok
            completed[0] += 1
            if backlog[0]:
                backlog[0] -= 1
                issue(client_id)
            else:
                free.append(client_id)

        def arrival() -> None:
            scheduler.schedule(rng.expovariate(rate), arrival)
            if free:
                issue(free.pop())
            else:
                backlog[0] += 1

        scheduler.schedule(rng.expovariate(rate), arrival)

    for server_id in range(SERVERS):
        for kind, clients, rate in OPEN_MACHINES:
            host = cluster.add_client(home_server=server_id)
            rng = random.Random(derive_seed(seed, f"open.{kind}.{server_id}"))
            machine(host, kind, clients, rate, rng)
    return cluster, completed


SHAPES = {"write": _saturated_cluster, "open": _open_loop_cluster}


def _is_generated(module) -> bool:
    """Code without a module of its own: ``@record`` constructors run in
    an ``exec`` scope with no ``__name__``, ``NamedTuple`` constructors
    in a ``namedtuple_<Name>`` one."""
    return module is None or module.startswith("namedtuple_")


def _measure_here(shape: str, seed: int) -> tuple[dict[str, int], int, int]:
    """(calls per layer, events fired, operations completed) over the
    window, counted in this interpreter."""
    cluster, completed = SHAPES[shape](seed)
    warmup, window = WINDOWS[shape]
    cluster.run(until=warmup)
    events_before = cluster.env.scheduler.events_fired
    ops_before = completed[0]
    by_module: dict = {}

    def profiler(frame, event, arg) -> None:
        # Both events report a frame: the callee's for a Python call,
        # the caller's for a C call.
        if event == "call" or event == "c_call":
            module = frame.f_globals.get("__name__")
            while _is_generated(module):
                frame = frame.f_back
                module = frame.f_globals.get("__name__")
            by_module[module] = by_module.get(module, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        cluster.run(until=warmup + window)
    finally:
        sys.setprofile(previous)
    layers: dict[str, int] = {}
    for module, calls in by_module.items():
        layer = layer_of_module(module)
        layers[layer] = layers.get(layer, 0) + calls
    return (
        dict(sorted(layers.items())),
        cluster.env.scheduler.events_fired - events_before,
        completed[0] - ops_before,
    )


def _measure(shape: str, seed: int) -> tuple[dict[str, int], int, int]:
    """:func:`_measure_here` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, __file__, shape, str(seed)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return tuple(json.loads(done.stdout))


@pytest.fixture(scope="module")
def measured() -> dict[str, tuple[dict[str, int], int, int]]:
    return {shape: _measure(shape, seed=11) for shape in SHAPES}


def _per_op(layers: dict[str, int], ops: int) -> dict[str, float]:
    return {layer: round(calls / ops, 1) for layer, calls in layers.items()}


def _check_budget(shape: str, counts: tuple[dict[str, int], int, int]) -> None:
    layers, events, ops = counts
    assert (events, ops) == (EVENTS_IN_WINDOW[shape], OPS_IN_WINDOW[shape]), (
        f"the simulated {shape!r} window changed: this budget compares "
        "interpreter work for identical simulated behaviour"
    )
    budgets = LAYER_BUDGET[shape]
    over = {
        layer: (round(calls / ops, 1), budgets.get(layer, 0.0))
        for layer, calls in layers.items()
        if calls / ops > budgets.get(layer, 0.0)
    }
    assert not over, (
        f"calls per {shape!r} op over their layer budgets, as (count, "
        f"budget): {over}; all layers: {_per_op(layers, ops)}.  Something "
        "on the per-message path started scanning or comparing in Python "
        "again, or a new layer needs its budget"
    )
    per_op = sum(layers.values()) / ops
    assert per_op <= CALLS_PER_OP_BUDGET[shape]


def test_write_path_stays_within_its_call_budget(measured):
    _check_budget("write", measured["write"])


def test_open_loop_reads_and_writes_stay_within_their_call_budget(measured):
    _check_budget("open", measured["open"])


def test_the_count_repeats_exactly(measured):
    assert {shape: _measure(shape, seed=11) for shape in SHAPES} == measured


if __name__ == "__main__":
    # ``python tests/unit/test_hot_path_budget.py write 11`` prints the
    # layer vector, events and operations of one window as JSON.
    print(json.dumps(_measure_here(sys.argv[1], int(sys.argv[2]))))
