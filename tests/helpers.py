"""Protocol-driving helpers shared across the test-suite."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

from repro.analysis.history import History
from repro.core.config import ProtocolConfig
from repro.core.messages import ClientRead, ClientWrite, OpId
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.runtime.sim_net import SimCluster
from repro.sim.faults import FaultPlan


def make_servers(n: int, config: ProtocolConfig | None = None) -> list[ServerProtocol]:
    ring = RingView.initial(n)
    return [ServerProtocol(i, ring, config or ProtocolConfig()) for i in range(n)]


class RingHarness:
    """Drives a set of ServerProtocols over an in-memory lossless ring.

    Message delivery is explicit (``pump``), which lets tests control
    interleavings precisely; each pump round lets every server send one
    ring message and delivers everything currently in flight.
    """

    def __init__(self, n: int, config: ProtocolConfig | None = None):
        self.servers = make_servers(n, config)
        self.in_flight: list[tuple[int, object]] = []  # (dst, message)
        self.replies: list = []
        self._next_op = 0

    def server(self, i: int) -> ServerProtocol:
        return self.servers[i]

    def client_write(self, server_id: int, value: bytes, client: int = 900) -> OpId:
        op = OpId(client, self._next_op)
        self._next_op += 1
        self.replies.extend(
            self.servers[server_id].on_client_message(client, ClientWrite(op, value))
        )
        return op

    def client_read(self, server_id: int, client: int = 901) -> OpId:
        op = OpId(client, self._next_op)
        self._next_op += 1
        self.replies.extend(
            self.servers[server_id].on_client_message(client, ClientRead(op))
        )
        return op

    def crash(self, server_id: int) -> None:
        """Deliver a perfect-FD notification to every other server."""
        for server in self.servers:
            if server.server_id != server_id:
                self.replies.extend(server.on_server_crash(server_id))

    def pump(self, rounds: int = 1) -> None:
        """One pump: every alive server sends one message; deliver all."""
        for _ in range(rounds):
            for server in self.servers:
                message = server.next_ring_message()
                if message is not None:
                    self.in_flight.append((server.successor, message))
            deliveries, self.in_flight = self.in_flight, []
            for dst, message in deliveries:
                self.replies.extend(self.servers[dst].on_ring_message(message))
                self.replies.extend(self.servers[dst].drain_replies())

    def pump_until_quiet(self, max_rounds: int = 200) -> None:
        for _ in range(max_rounds):
            if not self.in_flight and not any(s.has_ring_work for s in self.servers):
                return
            self.pump()
        raise AssertionError("ring did not quiesce")

    def acks_for(self, op: OpId) -> list:
        return [r for r in self.replies if getattr(r.message, "op", None) == op]


def run_recorded_cluster(num_servers: int, script, seed: int = 0, **kwargs):
    """Build a cluster with history recording, run ``script(cluster)``,
    return the closed history."""
    cluster = SimCluster.build(num_servers=num_servers, seed=seed, **kwargs)
    cluster.history = History()
    script(cluster)
    cluster.history.close()
    return cluster.history


def run_faulted_cluster(seed: int) -> SimCluster:
    """The determinism property's run: four clients (two writers, two
    readers, six ops each) on a 4-server ring under a partition, delay,
    duplication, loss, a throttle, a pause and a crash, recorded event
    by event and run to t=3.0."""
    cluster = SimCluster.build(
        num_servers=4,
        seed=seed,
        protocol=ProtocolConfig(client_timeout=0.6, client_max_retries=20),
    )
    cluster.env.trace.record_events = True
    cluster.history = History()

    def spawn(host, kind: str) -> None:
        state = {"i": 0}

        def on_complete(result) -> None:
            state["i"] += 1
            if state["i"] < 6:
                cluster.env.scheduler.schedule(0.05, issue)

        def issue() -> None:
            if kind == "write":
                host.write(b"%d:%d" % (host.client_id, state["i"]), on_complete)
            else:
                host.read(on_complete)

        issue()

    for i, kind in enumerate(["write", "write", "read", "read"]):
        spawn(cluster.add_client(home_server=i % 4), kind)

    plan = (
        FaultPlan()
        .partition([["s0", "s1"], ["s2", "s3"]], at=0.05, heal_at=0.12)
        .delay("s1", "s2", at=0.0, until=0.4, extra=0.001, jitter=0.002, symmetric=True)
        .duplicate("c0", "s0", p=0.4, at=0.0, until=0.4, symmetric=True)
        .drop("c1", "s1", p=0.2, at=0.0, until=0.4, symmetric=True)
        .throttle("s3", factor=3.0, at=0.1, until=0.3)
        .pause("s2", at=0.2, resume_at=0.26)
        .crash("s0", at=0.45)
    )
    cluster.apply_faults(plan)
    cluster.run(until=3.0)
    cluster.history.close()
    return cluster


_TESTS = Path(__file__).resolve().parent
_WRITE_AHEAD_SCRIPT = _TESTS / "integration/test_write_ahead.py"


def run_mutated(
    tmp_path: Path, rel: str, edit: Callable[[str], str], *argv: str
) -> subprocess.CompletedProcess:
    """Run ``python argv...`` against a copy of ``src/repro`` whose
    ``rel`` source (e.g. ``"core/server.py"``) is passed through
    ``edit``."""
    shutil.copytree(_TESTS.parent / "src/repro", tmp_path / "repro")
    target = tmp_path / "repro" / rel
    target.write_text(edit(target.read_text()))
    return subprocess.run(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), *sys.path])),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )  # fmt: skip


def run_write_ahead_check(
    tmp_path: Path, edit: Callable[[str], str], *args: str
) -> subprocess.CompletedProcess:
    """Run ``tests/integration/test_write_ahead.py`` as a script against
    a copy of ``src/repro`` whose ``core/server.py`` source is passed
    through ``edit``; ``args`` go to the script (``--structure`` runs
    the structural test instead of the chaos corpus)."""
    return run_mutated(
        tmp_path, "core/server.py", edit, str(_WRITE_AHEAD_SCRIPT), *args
    )
