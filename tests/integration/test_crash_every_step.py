"""Crash at every step: a server dies right after each of its outputs.

``tests/integration/test_write_ahead.py`` checks that the saved snapshot
equals the live state whenever an output leaves a server.  This test
checks what that buys: on a small seeded run, for every non-empty output
of every server, a fresh run crashes that server immediately after that
output and restarts it from its snapshot 5 ms later.  Every operation
must still complete, and every history must be atomic.

The run is 3 servers under the perfect detector and 2 clients with
three operations each.  A first run counts each server's outputs; the
crashing runs are identical to it up to their crash, so output ``k`` of
server ``s`` is the same step in both.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

from repro.analysis import History, check_register_history
from repro.core.config import ProtocolConfig
from repro.core.server import ServerProtocol
from repro.runtime.sim_net import SimCluster
from repro.sim.counters import PROCESS_CRASHES, PROCESS_RESTARTS

SEED = 5
RESTART_AFTER = 0.005
SETTLE = 0.5
_OUTPUTS = ("drain_replies", "next_directed_message", "next_ring_batch")


@contextlib.contextmanager
def on_every_output(hook: Callable[[ServerProtocol], None]):
    """Call ``hook(proto)`` after every non-empty output of any server."""
    originals = {name: getattr(ServerProtocol, name) for name in _OUTPUTS}

    def observed(original):
        def output(self, *args):
            result = original(self, *args)
            if result:
                hook(self)
            return result

        return output

    for name, original in originals.items():
        setattr(ServerProtocol, name, observed(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(ServerProtocol, name, original)


def run(crash_at: Optional[tuple[int, int]] = None) -> tuple[dict[int, int], History]:
    """One seeded run; crash server ``s`` right after its ``k``-th
    output when ``crash_at == (s, k)``.  Returns the outputs counted per
    server and the closed history."""
    cluster = SimCluster.build(
        num_servers=3,
        seed=SEED,
        protocol=ProtocolConfig(client_timeout=0.05, client_max_retries=40),
    )
    cluster.history = History()
    scheduler = cluster.env.scheduler
    outputs = {sid: 0 for sid in cluster.servers}

    def crash(server_id: int) -> None:
        cluster.crash_server(server_id)
        scheduler.schedule(RESTART_AFTER, cluster.restart_server, server_id)

    def count(proto: ServerProtocol) -> None:
        outputs[proto.server_id] += 1
        if crash_at == (proto.server_id, outputs[proto.server_id]):
            # After the event that produced the output, not inside it:
            # the host is still handing the output to its NIC.
            scheduler.schedule(0.0, crash, proto.server_id)

    completed = []
    for home in range(2):
        host = cluster.add_client(home_server=home)
        script = [b"c%d-a" % home, None, b"c%d-b" % home]  # None: a read

        def issue(host=host, script=script) -> None:
            value = script.pop(0)
            if value is None:
                host.read(done(host, script))
            else:
                host.write(value, done(host, script))

        def done(host, script):
            def complete(result) -> None:
                assert result.ok, result
                completed.append(result)
                if script:
                    issue(host, script)

            return complete

        issue()
    with on_every_output(count):
        cluster.run_until(lambda: len(completed) == 6)
        # A crash after the last output still lands, and the restarted
        # server gets time to be folded back in.
        cluster.run(until=cluster.now + SETTLE)
    cluster.history.close()
    if crash_at is not None:
        counters = cluster.env.trace.counters
        assert counters[PROCESS_CRASHES] == counters[PROCESS_RESTARTS] == 1
        assert not cluster.servers[crash_at[0]].proto.rejoining, crash_at
    return outputs, cluster.history


def test_crash_after_any_output_loses_no_operation():
    outputs, history = run()
    assert check_register_history(history)[0]
    steps = [(sid, k) for sid, total in outputs.items() for k in range(1, total + 1)]
    assert len(steps) >= 30, outputs
    for step in steps:
        _, history = run(crash_at=step)
        ok, reason = check_register_history(history)
        assert ok, (step, reason)
