"""The four benchmark workloads and their load generators.

Three run on the simulator (``SimCluster``, virtual clock) and one over
localhost TCP (``AsyncCluster``, real clock).  Every generator draws only
from ``random.Random(derive_seed(seed, name))`` streams: no wall-clock or
global-RNG input reaches it, so the same seed issues the same operations.

Each generator records its own :class:`~repro.analysis.history.History`
from the completion callbacks.  Values are ``header + padding`` where the
16-byte header (logical client id, sequence number) is unique per write;
the history stores the header and checks the length, never the payload.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.history import History
from repro.analysis.linearizability import (
    check_register_history,
    check_tagged_history,
)
from repro.analysis.stats import percentile
from repro.core.config import ProtocolConfig
from repro.errors import StorageUnavailableError
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.asyncio_net import AsyncCluster
from repro.runtime.sim_net import SimCluster
from repro.sim.counters import (
    NET_UNICASTS,
    NET_WIRE_BYTES,
    RELIABLE_BATCHED_FRAMES,
    RELIABLE_BATCHED_MESSAGES,
    RELIABLE_RETRANSMITS,
    RING_MESSAGES,
    net_suffix,
    scoped,
)
from repro.sim.rng import derive_seed

SERVERS = 4
HEADER_BYTES = 16
#: Measured windows per run, back to back.
WINDOWS = 24
#: Operations still open this many service-seconds after the last window
#: count as failed.
DRAIN_SECONDS = 5.0
INITIAL_FILL = 0xA5
#: Mean of the seeded exponential pause between a closed-loop client's
#: reply and its next request.  Without it a saturated ring settles into
#: one lock-step schedule whatever the seed: every write then takes
#: exactly clients/throughput (p50 = p99) and no run differs from the
#: next.  At ~1 % of a write's latency it leaves the ring saturated.
THINK_MEAN_S = 0.0005


@dataclass
class Window:
    """Raw numbers of one measured window."""

    service_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Client call -> client reply in service seconds (open loop: from the
    #: due time) of the operations that completed OK inside the window.
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "write": []}
    )

    @property
    def ops(self) -> int:
        return len(self.latencies["read"]) + len(self.latencies["write"])


@dataclass
class Recorder:
    """What a generator records, whichever runtime it drives."""

    value_size: int
    history: History = field(default_factory=History)
    windows: list[Window] = field(default_factory=list)
    #: Open loop: due -> issued, ops that completed inside a window.
    lateness: list[float] = field(default_factory=list)
    backlog_max: int = 0
    attempted: int = 0
    completed_ok: int = 0
    bad_lengths: int = 0
    window: Window | None = None
    #: Ops due from here on count as attempted (None: not measuring).
    measuring_since: float | None = None
    #: Traced runs: told of each completion (full-span budget).
    tracer: object = None

    def counted(self, due: float) -> bool:
        return self.measuring_since is not None and due >= self.measuring_since

    def attempt(self, due: float) -> None:
        if self.counted(due):
            self.attempted += 1

    def respond(self, now, client, key, kind, due, issued, ok, value, tag=None) -> None:
        if not ok:
            return
        if kind == "read":
            if len(value) not in (0, self.value_size):
                self.bad_lengths += 1
            value = value[:HEADER_BYTES]
        self.history.respond(now, client, key, value, tag)
        if self.counted(due):
            self.completed_ok += 1
        window = self.window
        if window is not None:
            window.latencies[kind].append(now - due)
            self.lateness.append(issued - due)
            if self.tracer is not None:
                self.tracer.op_done()


def header_of(client: int, seq: int) -> bytes:
    return client.to_bytes(8, "big") + seq.to_bytes(8, "big")


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClientGroup:
    """Client machines attached to *each* server."""

    kind: str  # "read" | "write"
    machines: int
    #: Logical clients per machine: the closed loop's concurrency, or the
    #: open loop's pool (arrivals beyond it wait in the machine's backlog).
    clients: int
    #: Open loop: Poisson arrivals per machine per simulated second.
    #: 0 = closed loop (reissue on completion).
    rate: float = 0.0


@dataclass(frozen=True)
class SimWorkload:
    name: str
    groups: tuple[ClientGroup, ...]
    value_size: int = 4096
    protocol: ProtocolConfig = ProtocolConfig()
    heartbeat: HeartbeatConfig | None = None
    warmup: float = 1.0
    #: Simulated seconds the reference box gets through per wall second:
    #: ``--seconds`` times this is the simulated length of a run, fixed so
    #: that both sides of a comparison do identical work.
    sim_s_per_wall_s: float = 1.0


RING_WRITE = SimWorkload(
    name="ring_write",
    groups=(
        ClientGroup("write", machines=2, clients=16),
        # Read probe: the benchmark contract wants every end-to-end metric
        # on every workload, so a light open-loop reader (200 reads/s
        # cluster-wide against ~2800 writes/s) times reads under write
        # saturation.  It never touches the ring.
        ClientGroup("read", machines=1, clients=8, rate=50.0),
    ),
    sim_s_per_wall_s=0.62,
)

MIXED_OPEN = SimWorkload(
    name="mixed_open",
    groups=(
        ClientGroup("write", machines=1, clients=64, rate=1400.0 / SERVERS),
        ClientGroup("read", machines=1, clients=64, rate=5600.0 / SERVERS),
    ),
    sim_s_per_wall_s=0.38,
)

CODED_LARGE = SimWorkload(
    name="coded_large",
    groups=(
        ClientGroup("write", machines=1, clients=8),
        ClientGroup("read", machines=1, clients=4),
    ),
    value_size=64 * 1024,
    protocol=ProtocolConfig(
        view_quorum=True, value_coding="coded", coding_k=2, coding_n=SERVERS,
        batch_max_messages=1,
    ),
    heartbeat=HeartbeatConfig(
        period=0.05, timeout=0.3, check_interval=0.025, propose_grace=0.08,
        lease_duration=0.2, clock_drift_bound=0.02,
    ),
    sim_s_per_wall_s=1.25,
)


@dataclass
class _Machine:
    host: object
    kind: str
    rate: float
    rng: random.Random
    free: deque = field(default_factory=deque)
    backlog: deque = field(default_factory=deque)


class SimLoad:
    """Closed- and open-loop load against a :class:`SimCluster`."""

    #: Methods spanned as the ``workload`` layer in a traced run (arrival
    #: events are attributed through the scheduler).
    TRACED = ("_issue", "_completed")
    #: The service clock is the simulator's.
    REAL_CLOCK = False

    def __init__(self, workload: SimWorkload, seed: int):
        self.workload = workload
        self.rec = Recorder(workload.value_size)
        kwargs = {}
        if workload.heartbeat is not None:
            kwargs = {"fd": "heartbeat", "heartbeat": workload.heartbeat}
        self.cluster = SimCluster.build(
            num_servers=SERVERS,
            seed=seed,
            protocol=workload.protocol,
            initial_value=bytes([INITIAL_FILL]) * workload.value_size,
            **kwargs,
        )
        self._padding = bytes(workload.value_size - HEADER_BYTES)
        self._seq = 0
        self._stopped = False
        self.outstanding = 0
        self.machines: list[_Machine] = []
        for server_id in sorted(self.cluster.servers):
            for group in workload.groups:
                for _ in range(group.machines):
                    self._add_machine(server_id, group, seed)

    def _add_machine(self, server_id: int, group: ClientGroup, seed: int) -> None:
        host = self.cluster.add_client(home_server=server_id)
        stream = f"{self.workload.name}.machine{len(self.machines)}"
        machine = _Machine(
            host, group.kind, group.rate, random.Random(derive_seed(seed, stream))
        )
        machine.free.append(host.client_id)
        for _ in range(group.clients - 1):
            machine.free.append(host.add_virtual_client())
        self.machines.append(machine)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Open loops schedule their first arrival; every closed-loop
        client issues at once.  (Seeding the start offsets instead locks
        the saturated ring into a seed-specific order that persists for
        the whole run: probe-read latency then differs by 25 % between
        seeds.)"""
        for machine in self.machines:
            if machine.rate:
                self.cluster.env.scheduler.schedule(
                    machine.rng.expovariate(machine.rate), self._arrival, machine
                )
            else:
                while machine.free:
                    self._issue_now(machine, machine.free.popleft())

    def run_window(self, sim_seconds: float) -> Window:
        rec = self.rec
        window = rec.window = Window(service_s=sim_seconds)
        cpu = time.process_time()
        wall = time.perf_counter()
        self.cluster.run(until=self.cluster.now + sim_seconds)
        window.wall_s = time.perf_counter() - wall
        window.cpu_s = time.process_time() - cpu
        rec.window = None
        rec.windows.append(window)
        return window

    def drain(self) -> None:
        """Stop new work; let open operations finish for up to
        :data:`DRAIN_SECONDS` simulated seconds."""
        self._stopped = True
        deadline = self.cluster.now + DRAIN_SECONDS
        while self.outstanding and self.cluster.now < deadline:
            self.cluster.run(until=min(deadline, self.cluster.now + 0.05))
        self.rec.history.close()

    # -- the loops ------------------------------------------------------

    def _arrival(self, machine: _Machine) -> None:
        if self._stopped:
            return
        due = self.cluster.now
        self.cluster.env.scheduler.schedule(
            machine.rng.expovariate(machine.rate), self._arrival, machine
        )
        self.rec.attempt(due)
        if machine.free:
            self._issue(machine, machine.free.popleft(), due)
        else:
            machine.backlog.append(due)
            self.rec.backlog_max = max(self.rec.backlog_max, len(machine.backlog))

    def _issue_now(self, machine: _Machine, client: int) -> None:
        if self._stopped:
            machine.free.append(client)
            return
        self.rec.attempt(self.cluster.now)
        self._issue(machine, client, self.cluster.now)

    def _issue(self, machine: _Machine, client: int, due: float) -> None:
        now = self.cluster.now
        kind = machine.kind

        def on_complete(result) -> None:
            self._completed(machine, client, op, due, now, result)

        if kind == "write":
            self._seq += 1
            header = header_of(client, self._seq)
            op = machine.host.write(header + self._padding, on_complete, client_id=client)
        else:
            header = None
            op = machine.host.read(on_complete, client_id=client)
        self.outstanding += 1
        self.rec.history.invoke(now, client, op, kind, header)

    def _completed(self, machine, client, op, due, issued, result) -> None:
        self.outstanding -= 1
        self.rec.respond(
            self.cluster.now, client, op, machine.kind, due, issued,
            result.ok, result.value, result.tag,
        )
        if machine.backlog:
            self._issue(machine, client, machine.backlog.popleft())
        elif machine.rate or self._stopped:
            machine.free.append(client)
        else:
            self.cluster.env.scheduler.schedule(
                machine.rng.expovariate(1.0 / THINK_MEAN_S),
                self._issue_now, machine, client,
            )

    # -- results --------------------------------------------------------

    def check(self) -> tuple[bool, str]:
        return check_tagged_history(self.rec.history, require_full_coverage=True)

    def counters(self) -> dict[str, float]:
        """Monotone counts the per-layer metrics are differences of."""
        trace = self.cluster.env.trace.counters
        protos = [host.proto for host in self.cluster.servers.values()]
        clients = [
            proto for host in self.cluster.clients.values()
            for proto in host.protos.values()
        ]
        return {
            "events": self.cluster.env.scheduler.events_fired,
            "wire_bytes": _net_total(trace, NET_WIRE_BYTES),
            "ring_bytes": trace.get(scoped("srv", NET_WIRE_BYTES), 0),
            "messages": _net_total(trace, NET_UNICASTS),
            "ring_messages": trace.get(RING_MESSAGES, 0),
            "batched_frames": trace.get(RELIABLE_BATCHED_FRAMES, 0),
            "batched_messages": trace.get(RELIABLE_BATCHED_MESSAGES, 0),
            "retransmits": trace.get(RELIABLE_RETRANSMITS, 0),
            "client_retries": sum(proto.stats_retries for proto in clients),
            "cache_reads": sum(p.stats_coding_cache_reads for p in protos),
            "reconstructions": sum(p.stats_coding_reconstructions for p in protos),
        }


def _net_total(counters, kind: str) -> int:
    suffix = net_suffix(kind)
    return sum(amount for name, amount in counters.items() if name.endswith(suffix))


# ----------------------------------------------------------------------
# The real-socket workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TcpWorkload:
    name: str = "tcp_mixed"
    value_size: int = 4096
    #: Operations completed before the first window (a count, not a time,
    #: so that set-up is work the host scaling applies to).
    warmup_ops: int = 3000


TCP_MIXED = TcpWorkload()


class TcpLoad:
    """``min(nproc, 4)`` closed-loop clients alternating write/read
    against an :class:`AsyncCluster` on localhost, in this process, on
    one event loop.  The service clock is the real clock."""

    TRACED = ("_begin", "_end")
    REAL_CLOCK = True

    def __init__(self, workload: TcpWorkload, seed: int):
        self.workload = workload
        self.rec = Recorder(workload.value_size)
        self.cluster = AsyncCluster(SERVERS)
        self.clients: list = []
        self._padding = bytes(workload.value_size - HEADER_BYTES)
        self._seq = 0
        self._stopped = False
        self._tasks: list[asyncio.Task] = []

    async def start(self) -> None:
        await self.cluster.start()
        count = min(os.cpu_count() or 1, SERVERS)
        self.clients = [self.cluster.client(home_server=i) for i in range(count)]
        self._tasks = [
            asyncio.create_task(self._client_loop(client)) for client in self.clients
        ]

    async def warm_up(self, ops: float) -> None:
        while self._seq < ops:
            await asyncio.sleep(0.01)

    async def run_window(self, seconds: float) -> Window:
        rec = self.rec
        window = rec.window = Window()
        cpu = time.process_time()
        wall = time.perf_counter()
        await asyncio.sleep(seconds)
        window.wall_s = window.service_s = time.perf_counter() - wall
        window.cpu_s = time.process_time() - cpu
        rec.window = None
        rec.windows.append(window)
        return window

    async def drain(self) -> None:
        self._stopped = True
        _done, pending = await asyncio.wait(self._tasks, timeout=DRAIN_SECONDS)
        for task in pending:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for client in self.clients:
            await client.close()
        await self.cluster.stop()
        self.rec.history.close()

    async def _client_loop(self, client) -> None:
        kind = "write"
        while not self._stopped:
            pending = self._begin(client.client_id, kind)
            try:
                if kind == "write":
                    await client.write(pending[-1] + self._padding)
                    value = None
                else:
                    value = await client.read()
                ok = True
            except StorageUnavailableError:
                ok, value = False, None
            self._end(pending, ok, value)
            kind = "read" if kind == "write" else "write"

    def _begin(self, client: int, kind: str) -> tuple:
        self._seq += 1
        header = header_of(client, self._seq) if kind == "write" else None
        now = time.perf_counter()
        self.rec.attempt(now)
        self.rec.history.invoke(now, client, self._seq, kind, header)
        return (client, self._seq, kind, now, header)

    def _end(self, pending: tuple, ok: bool, value) -> None:
        client, key, kind, started, _header = pending
        self.rec.respond(
            time.perf_counter(), client, key, kind, started, started, ok, value
        )

    def check(self) -> tuple[bool, str]:
        return check_register_history(self.rec.history, initial=b"")

    def counters(self) -> dict[str, float]:
        protos = [node.proto for node in self.cluster.nodes.values()]
        return {
            "client_retries": sum(c.proto.stats_retries for c in self.clients),
            "cache_reads": sum(p.stats_coding_cache_reads for p in protos),
            "reconstructions": sum(p.stats_coding_reconstructions for p in protos),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (RING_WRITE, MIXED_OPEN, CODED_LARGE, TCP_MIXED)
}


def percentiles_ms(samples: list[float]) -> dict:
    """Median and 99th percentile in milliseconds, with the sample count."""
    if not samples:
        return {"n": 0, "p50_ms": 0.0, "p99_ms": 0.0}
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "p50_ms": percentile(ordered, 50.0) * 1e3,
        "p99_ms": percentile(ordered, 99.0) * 1e3,
    }


def fastest(windows: list[Window]) -> list[Window]:
    """The sixth of the windows with the highest operation rates.

    Host interference only ever slows a window; what the real clock says
    about the fastest few moves far less from run to run than a median
    over all of them does, and unlike the single best window they have to
    agree with each other."""
    ranked = sorted(windows, key=lambda w: w.ops / w.wall_s, reverse=True)
    return ranked[: max(1, len(ranked) // 6)]


def fast_rate(windows: list[Window]) -> float:
    """Operations per real second over the fastest windows."""
    chosen = fastest(windows)
    return sum(w.ops for w in chosen) / sum(w.wall_s for w in chosen)


def latency_ms(windows: list[Window], kind: str, real_clock: bool) -> dict:
    """Latency summary of one kind of operation: samples pooled.

    Simulated latencies do not depend on the host, so every window
    counts.  Real-clock latencies (``tcp_mixed``) come from the fastest
    windows only: a window the host disturbed has both fewer operations
    and a longer tail."""
    chosen = fastest(windows) if real_clock else windows
    return percentiles_ms([s for w in chosen for s in w.latencies[kind]])
