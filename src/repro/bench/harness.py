"""Experiment runner: one measured point per call.

``measure_cluster`` is the one measuring loop of the paper's
methodology: start the closed-loop load, let it warm up, measure over a
window, and report total read/write throughput in Mbit/s (the paper's
unit: payload bits delivered to/accepted from clients per second).
``run_throughput_point`` builds the cluster for it; ``run_latency_point``
measures isolated (unloaded) operation latency for Figure 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.stats import LatencyStats, mbit_per_s
from repro.runtime.sim_net import SimCluster
from repro.workload.generator import LoadDriver, WorkloadSpec


def windows(quick: bool) -> tuple[float, float]:
    """(warmup, window) in simulated seconds: the quick windows of the
    test suite and the snapshot runner, or the full ones."""
    return (0.15, 0.3) if quick else (0.3, 1.0)


@dataclass(frozen=True)
class ThroughputPoint:
    """One measured (num_servers, workload) data point."""

    num_servers: int
    topology: str
    read_ops: int
    write_ops: int
    read_mbps: float
    write_mbps: float
    read_latency: LatencyStats
    write_latency: LatencyStats
    window: float
    #: Real seconds the measuring loop took: host-dependent, reported only.
    wall_seconds: float

    @property
    def read_mbps_per_server(self) -> float:
        return self.read_mbps / self.num_servers


def run_throughput_point(
    num_servers: int,
    spec: WorkloadSpec,
    topology: str = "dual",
    seed: int = 0,
    warmup: float = 0.25,
    window: float = 1.0,
    build=SimCluster.build,
    **cluster_kwargs,
) -> ThroughputPoint:
    """Measure saturated throughput for one cluster size.

    ``build`` is the cluster factory — :meth:`SimCluster.build` or a
    baseline's (e.g. :func:`repro.baselines.build_abd_cluster`); the
    rest of ``cluster_kwargs`` goes to it.  The register starts
    pre-populated with a value of the workload's size, so read replies
    carry full payloads from the first request.
    """
    cluster = build(
        num_servers,
        topology=topology,
        seed=seed,
        initial_value=b"\xa5" * spec.value_size,
        **cluster_kwargs,
    )
    return measure_cluster(cluster, spec, warmup=warmup, window=window)


def measure_cluster(
    cluster, spec: WorkloadSpec, warmup: float, window: float, seed: int = 0
) -> ThroughputPoint:
    """Apply the closed-loop workload (its driver seeded by ``seed``) to
    ``cluster`` and measure one warm-started window.  The trace counters
    are zeroed when the window opens, so they cover exactly the window
    the throughput numbers do."""
    driver = LoadDriver(cluster, spec, seed=seed)
    wall_start = time.perf_counter()
    driver.start()
    cluster.run(until=cluster.now + warmup)
    cluster.env.trace.reset_counters()
    driver.begin_measurement()
    cluster.run(until=cluster.now + window)
    driver.end_measurement()
    driver.stop()
    wall_seconds = time.perf_counter() - wall_start

    reads = driver.stats["read"]
    writes = driver.stats["write"]
    return ThroughputPoint(
        num_servers=cluster.config.num_servers,
        topology=cluster.config.topology,
        read_ops=reads.operations,
        write_ops=writes.operations,
        read_mbps=mbit_per_s(reads.payload_bytes, window),
        write_mbps=mbit_per_s(writes.payload_bytes, window),
        read_latency=LatencyStats.from_samples(reads.latencies),
        write_latency=LatencyStats.from_samples(writes.latencies),
        window=window,
        wall_seconds=wall_seconds,
    )


@dataclass(frozen=True)
class LatencyPoint:
    """Isolated-operation latency for one cluster size (Figure 4)."""

    num_servers: int
    read_ms: float
    write_ms: float


def run_latency_point(
    num_servers: int,
    value_size: int = 4096,
    samples: int = 20,
    seed: int = 0,
) -> LatencyPoint:
    """Measure unloaded read/write latency (one client, one op at a time)."""
    cluster = SimCluster.build(num_servers=num_servers, seed=seed)
    host = cluster.add_client(home_server=0)
    read_samples: list[float] = []
    write_samples: list[float] = []

    def run_one(kind: str, sink: list[float], seq: int) -> None:
        done: list = []
        started = cluster.now
        if kind == "read":
            host.read(done.append)
        else:
            value = seq.to_bytes(8, "big") + b"\x00" * (value_size - 8)
            host.write(value, done.append)
        cluster.run_until(lambda: bool(done))
        sink.append(cluster.now - started)

    for i in range(samples):
        run_one("write", write_samples, i)
        run_one("read", read_samples, i)

    return LatencyPoint(
        num_servers=num_servers,
        read_ms=1e3 * sum(read_samples) / len(read_samples),
        write_ms=1e3 * sum(write_samples) / len(write_samples),
    )
