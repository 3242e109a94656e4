"""Closed-loop load generation against a simulated cluster.

A :class:`LoadDriver` spawns client *machines* (one NIC each, as in the
paper's testbed) bound to specific servers, each emulating several
logical clients.  Every logical client runs a closed loop: issue an
operation, wait for completion, immediately issue the next.  Throughput
is whatever the system sustains — the standard way to measure saturated
throughput, and the paper's ("a single writing node can saturate the
storage implementation").

Written values embed the logical client id and a sequence number, so
every written value is globally unique — a requirement of the value-based
linearizability checker and good hygiene regardless.

Block mode (``num_blocks > 0``) targets a sharded cluster: machines are
:class:`~repro.runtime.sharded.ShardClientHost`\\ s and every operation
draws a block first — uniformly, or by a Zipf law over block ranks
(``block_skew``).  The skewed draws are what the elastic placement
benchmarks feed the rebalancer.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a load pattern.

    Attributes
    ----------
    reader_machines_per_server / writer_machines_per_server:
        Client machines bound to each server, matching the paper's
        "two dedicated client machines for each server".
    reader_concurrency / writer_concurrency:
        Logical clients each machine emulates (requests in parallel).
        Reads that wait for pending writes have latencies of several ring
        circuits, so saturating a loaded server takes far more
        outstanding reads than unloaded reads (Little's law); hence the
        separate knobs.
    value_size:
        Payload bytes per value (reads return this much; writes carry it).
    num_blocks:
        0 (default) drives the single-register cluster via plain
        read/write.  >0 drives a sharded cluster: machines become shard
        clients and every operation draws a target block first.
    block_skew:
        Zipf exponent ``s`` over block ranks: block ``i`` is drawn with
        weight ``1/(i+1)**s``, so block 0 is the hottest.  0 = uniform.
    """

    reader_machines_per_server: int = 2
    writer_machines_per_server: int = 0
    reader_concurrency: int = 4
    writer_concurrency: int = 4
    value_size: int = 4096
    num_blocks: int = 0
    block_skew: float = 0.0

    def validate(self) -> "WorkloadSpec":
        if self.reader_machines_per_server < 0 or self.writer_machines_per_server < 0:
            raise ConfigurationError("machine counts must be >= 0")
        if self.reader_concurrency < 1 or self.writer_concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if self.value_size < 16:
            raise ConfigurationError("value_size must be >= 16 (unique-value header)")
        if self.num_blocks < 0:
            raise ConfigurationError("num_blocks must be >= 0")
        if self.num_blocks == 0 and self.block_skew:
            raise ConfigurationError("block_skew requires num_blocks > 0")
        if self.block_skew < 0:
            raise ConfigurationError("block_skew must be >= 0")
        return self


@dataclass
class KindStats:
    """Accounting for one operation kind inside the measurement window."""

    operations: int = 0
    payload_bytes: int = 0
    latencies: list = field(default_factory=list)


class LoadDriver:
    """Runs a :class:`WorkloadSpec` against a cluster.

    Usage::

        driver = LoadDriver(cluster, spec)
        driver.start()
        cluster.run(until=warmup_end)
        driver.begin_measurement()
        cluster.run(until=window_end)
        driver.end_measurement()
        stats = driver.stats["read"]
    """

    def __init__(self, cluster, spec: WorkloadSpec, seed: int = 0):
        self.cluster = cluster
        self.spec = spec.validate()
        self.stats: dict[str, KindStats] = {"read": KindStats(), "write": KindStats()}
        self._measuring = False
        self._stopped = False
        self._clients: list[tuple[object, int, str]] = []  # (host, client_id, kind)
        self._write_seq = 0
        #: Block draws issued so far, per block (tests assert the
        #: distribution shape against this, not against completions,
        #: which fold in per-block service rates).
        self.block_ops_issued: dict[int, int] = {}
        self._rng = random.Random(derive_seed(seed, "workload.blocks"))
        self._block_cdf = self._build_block_cdf()
        self._build()

    def _build_block_cdf(self):
        """Cumulative weights of the Zipf(``block_skew``) law over block
        ranks (block 0 hottest); ``None`` outside block mode."""
        if self.spec.num_blocks == 0:
            return None
        weights = [
            1.0 / (rank + 1) ** self.spec.block_skew
            for rank in range(self.spec.num_blocks)
        ]
        cdf = []
        running = 0.0
        for weight in weights:
            running += weight
            cdf.append(running)
        return cdf

    def _draw_block(self) -> int:
        cdf = self._block_cdf
        block = bisect_left(cdf, self._rng.random() * cdf[-1])
        self.block_ops_issued[block] = self.block_ops_issued.get(block, 0) + 1
        return block

    def _build(self) -> None:
        for server_id in sorted(self.cluster.servers):
            for _ in range(self.spec.reader_machines_per_server):
                self._add_machine(server_id, "read")
            for _ in range(self.spec.writer_machines_per_server):
                self._add_machine(server_id, "write")

    def _add_machine(self, server_id: int, kind: str) -> None:
        if self.spec.num_blocks > 0:
            # Imported here, not at module top: the workload layer stays
            # importable without the sharded stack and vice versa.
            from repro.runtime.sharded import add_shard_client

            host = add_shard_client(self.cluster, home_server=server_id)
        else:
            host = self.cluster.add_client(home_server=server_id)
        concurrency = (
            self.spec.reader_concurrency
            if kind == "read"
            else self.spec.writer_concurrency
        )
        ids = [host.client_id]
        for _ in range(concurrency - 1):
            ids.append(host.add_virtual_client())
        for client_id in ids:
            self._clients.append((host, client_id, kind))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Issue the first operation of every logical client."""
        for host, client_id, kind in self._clients:
            self._issue(host, client_id, kind)

    def stop(self) -> None:
        """Stop reissuing; in-flight operations complete and then the
        simulation quiesces."""
        self._stopped = True

    def begin_measurement(self) -> None:
        """Zero counters; subsequent completions count."""
        self.stats = {"read": KindStats(), "write": KindStats()}
        self._measuring = True

    def end_measurement(self) -> None:
        self._measuring = False

    @property
    def logical_clients(self) -> int:
        return len(self._clients)

    # ------------------------------------------------------------------
    # The closed loop
    # ------------------------------------------------------------------

    def _issue(self, host, client_id: int, kind: str) -> None:
        if self._stopped or not host.alive:
            return
        started = self.cluster.now

        def on_complete(result) -> None:
            self._completed(host, client_id, kind, started, result)

        if self.spec.num_blocks > 0:
            reg = self._draw_block()
            if kind == "read":
                host.read_block(reg, on_complete, client_id=client_id)
            else:
                host.write_block(
                    reg, self._next_value(client_id), on_complete, client_id=client_id
                )
        elif kind == "read":
            host.read(on_complete, client_id=client_id)
        else:
            host.write(self._next_value(client_id), on_complete, client_id=client_id)

    def _completed(self, host, client_id: int, kind: str, started: float, result) -> None:
        if result.ok and self._measuring:
            stats = self.stats[kind]
            stats.operations += 1
            stats.payload_bytes += self.spec.value_size
            stats.latencies.append(self.cluster.now - started)
        self._issue(host, client_id, kind)

    def _next_value(self, client_id: int) -> bytes:
        self._write_seq += 1
        header = client_id.to_bytes(8, "big") + self._write_seq.to_bytes(8, "big")
        return header + b"\x00" * (self.spec.value_size - len(header))
