"""Integration tests for the workload generator and benchmark harness."""

import pytest

from repro.bench.harness import (
    measure_cluster,
    run_latency_point,
    run_throughput_point,
)
from repro.runtime.sim_net import SimCluster
from repro.workload.generator import LoadDriver, WorkloadSpec
from repro.workload.scenarios import read_only_scenario, write_only_scenario


def test_load_driver_counts_only_measurement_window():
    cluster = SimCluster.build(num_servers=2, seed=41, initial_value=b"\0" * 4096)
    driver = LoadDriver(cluster, WorkloadSpec(1, 0, 2, 2, 4096))
    driver.start()
    cluster.run(until=0.05)
    assert driver.stats["read"].operations == 0, "warmup must not count"
    driver.begin_measurement()
    cluster.run(until=0.15)
    driver.end_measurement()
    counted = driver.stats["read"].operations
    assert counted > 0
    cluster.run(until=0.2)
    assert driver.stats["read"].operations == counted, "after window must not count"


def test_load_driver_spawns_declared_clients():
    cluster = SimCluster.build(num_servers=3, seed=42)
    driver = LoadDriver(cluster, WorkloadSpec(2, 1, 4, 8, 1024))
    # 3 servers x (2 reader machines x 4 + 1 writer machine x 8).
    assert driver.logical_clients == 3 * (2 * 4 + 1 * 8)


def test_written_values_are_unique():
    cluster = SimCluster.build(num_servers=2, seed=43)
    driver = LoadDriver(cluster, WorkloadSpec(0, 1, 2, 2, 64))
    values = {driver._next_value(1) for _ in range(100)}
    assert len(values) == 100


def test_throughput_point_read_only_regime():
    point = run_throughput_point(2, read_only_scenario(), warmup=0.1, window=0.2)
    assert point.write_ops == 0
    assert 85.0 < point.read_mbps_per_server < 96.0
    assert point.read_latency.count == point.read_ops


def test_throughput_point_write_only_regime():
    point = run_throughput_point(3, write_only_scenario(), warmup=0.1, window=0.2)
    assert point.read_ops == 0
    assert 80.0 < point.write_mbps < 96.0


def test_latency_point_shape():
    small = run_latency_point(2, samples=4)
    large = run_latency_point(6, samples=4)
    assert small.read_ms == pytest.approx(large.read_ms, rel=0.05)
    assert large.write_ms > 2.0 * small.write_ms


def test_measure_cluster_reports_cluster_size():
    cluster = SimCluster.build(num_servers=4, seed=44, initial_value=b"\0" * 4096)
    point = measure_cluster(cluster, read_only_scenario(), warmup=0.05, window=0.1)
    assert point.num_servers == 4
    assert point.topology == "dual"
