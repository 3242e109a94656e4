"""A deterministic budget for the write path's interpreter work.

Wall clock is ungated because it is noisy on shared hosts; the number of
Python-level and C-level calls the interpreter makes is not — it repeats
exactly per seed.  This test saturates a 4-server ring with 128
closed-loop 4 KiB writers (the shape of perfbench's ``ring_write``),
warms up, then counts ``call``/``c_call`` profile events over a fixed
simulated window and holds calls per completed write under a budget.

The simulated behaviour is pinned beside it: the same window must fire
exactly the events (and complete exactly the writes) it did before the
scheduler and pending-set rewrite, so a "saving" that changes what the
simulator does fails here rather than passing as a speed-up.

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
import subprocess
import sys

import pytest

from repro.runtime.sim_net import SimCluster

SERVERS = 4
MACHINES_PER_SERVER = 2
CLIENTS_PER_MACHINE = 16
VALUE = bytes(4096)
THINK_S = 0.0005
WARMUP_S = 0.5
WINDOW_S = 0.3

#: Calls per completed write over the window.  1,927 with the
#: ``EventHandle.__lt__`` heap, dataclass tags and scanned pending set;
#: about 1,130 with tuple heap entries, tuple tags and ``PendingSet``;
#: about 835 with per-link state resolved once, closure-free NIC stages
#: and ``dict.copy()`` snapshots; 817.2 with ``payload_size`` a dict
#: dispatch instead of an ``isinstance`` chain (4 calls per ``PreWrite``
#: sized, was 8; 3 per ``Commit``, was 8).  The budget is that count
#: plus 10 %: room for features, not for scans or per-frame lookups.
CALLS_PER_OP_BUDGET = 900

#: What the window did on the commit before the rewrite (seed 11).
EVENTS_IN_WINDOW = 10_200
WRITES_IN_WINDOW = 848


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


def _measure_here(seed: int) -> tuple[int, int, int]:
    """(calls, events fired, writes completed) over the window, counted
    in this interpreter."""
    cluster, completed = _saturated_cluster(seed)
    cluster.run(until=WARMUP_S)
    events_before = cluster.env.scheduler.events_fired
    writes_before = completed[0]
    calls = [0]

    def profiler(frame, event, arg) -> None:
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        cluster.run(until=WARMUP_S + WINDOW_S)
    finally:
        sys.setprofile(previous)
    return (
        calls[0],
        cluster.env.scheduler.events_fired - events_before,
        completed[0] - writes_before,
    )


def _measure(seed: int) -> tuple[int, int, int]:
    """:func:`_measure_here` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, __file__, str(seed)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return tuple(json.loads(done.stdout))


@pytest.fixture(scope="module")
def measured() -> tuple[int, int, int]:
    return _measure(seed=11)


def test_write_path_stays_within_its_call_budget(measured):
    calls, events, writes = measured
    assert (events, writes) == (EVENTS_IN_WINDOW, WRITES_IN_WINDOW), (
        "the simulated window changed: this budget compares interpreter "
        "work for identical simulated behaviour"
    )
    per_op = calls / writes
    assert per_op <= CALLS_PER_OP_BUDGET, (
        f"{per_op:.0f} calls per write (budget {CALLS_PER_OP_BUDGET}); "
        "something on the per-message path started scanning or comparing "
        "in Python again"
    )


def test_the_count_repeats_exactly(measured):
    assert _measure(seed=11) == measured


if __name__ == "__main__":
    print(json.dumps(_measure_here(int(sys.argv[1]))))
