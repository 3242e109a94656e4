"""Unit tests for the block-mode workload knobs: Zipf skew, hotsets,
mixed value sizes, and the spec validation that guards them."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.sharded import BlockStore
from repro.workload.generator import LoadDriver, WorkloadSpec


def _driver(spec, seed=5):
    cluster = BlockStore.build(
        num_servers=2, num_blocks=spec.num_blocks, seed=91
    ).cluster
    return LoadDriver(cluster, spec, seed=seed)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_block_knobs_require_block_mode():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(block_skew=1.0).validate()
    with pytest.raises(ConfigurationError):
        WorkloadSpec(hot_blocks=(0,), hot_fraction=0.5).validate()


def test_negative_skew_rejected():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(num_blocks=4, block_skew=-0.1).validate()


def test_hot_fraction_bounds():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(num_blocks=4, hot_blocks=(0,), hot_fraction=1.5).validate()


def test_hotset_and_fraction_must_come_together():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(num_blocks=4, hot_blocks=(0,)).validate()
    with pytest.raises(ConfigurationError):
        WorkloadSpec(num_blocks=4, hot_fraction=0.3).validate()


def test_hot_blocks_in_range_and_unique():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(num_blocks=4, hot_blocks=(4,), hot_fraction=0.3).validate()
    with pytest.raises(ConfigurationError):
        WorkloadSpec(
            num_blocks=4, hot_blocks=(1, 1), hot_fraction=0.3
        ).validate()


def test_value_sizes_floor():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(value_sizes=(8,)).validate()
    WorkloadSpec(value_sizes=(64, 4096)).validate()


# ----------------------------------------------------------------------
# Distribution shape
# ----------------------------------------------------------------------


def test_uniform_draws_cover_all_blocks_evenly():
    spec = WorkloadSpec(num_blocks=4, reader_machines_per_server=1)
    driver = _driver(spec)
    for _ in range(4000):
        driver._draw_block()
    counts = driver.block_ops_issued
    assert set(counts) == {0, 1, 2, 3}
    for block in counts:
        assert 800 < counts[block] < 1200, (
            f"uniform draw skewed: {counts}"
        )


def test_zipf_draws_are_rank_ordered():
    """Zipf(1.1) over 8 blocks: the issued counts must be monotone
    decreasing in rank, with block 0 taking the plurality (~40 %:
    1 / sum(1/(r+1)^1.1 for r in 0..7) = 0.398)."""
    spec = WorkloadSpec(
        num_blocks=8, block_skew=1.1, reader_machines_per_server=1
    )
    driver = _driver(spec)
    total = 20000
    for _ in range(total):
        driver._draw_block()
    counts = [driver.block_ops_issued.get(block, 0) for block in range(8)]
    assert sum(counts) == total
    for rank in range(7):
        assert counts[rank] > counts[rank + 1], (
            f"rank {rank} colder than rank {rank + 1}: {counts}"
        )
    assert 0.35 < counts[0] / total < 0.45


def test_hotset_takes_its_configured_fraction():
    spec = WorkloadSpec(
        num_blocks=8, hot_blocks=(5, 6), hot_fraction=0.6,
        reader_machines_per_server=1,
    )
    driver = _driver(spec)
    total = 20000
    for _ in range(total):
        driver._draw_block()
    # The hotset absorbs its fraction *plus* the uniform law's share of
    # those blocks: 0.6 + 0.4 * 2/8 = 0.7 expected.
    hot = driver.block_ops_issued.get(5, 0) + driver.block_ops_issued.get(6, 0)
    assert 0.65 < hot / total < 0.75, f"hotset share {hot / total:.3f}"


def test_mixed_value_sizes_draw_from_the_tuple():
    spec = WorkloadSpec(
        num_blocks=2, value_sizes=(64, 1024, 8192),
        reader_machines_per_server=1,
    )
    driver = _driver(spec)
    seen = {driver._draw_value_size() for _ in range(200)}
    assert seen == {64, 1024, 8192}
    value = driver._next_value(1, 64)
    assert len(value) == 64


def test_fixed_value_size_without_tuple():
    spec = WorkloadSpec(num_blocks=2, reader_machines_per_server=1)
    driver = _driver(spec)
    assert driver._draw_value_size() == spec.value_size
    # Legacy callers that never pass a size still get the spec default.
    assert len(driver._next_value(1)) == spec.value_size


def test_block_mode_machines_are_shard_clients():
    from repro.runtime.sharded import ShardClientHost

    spec = WorkloadSpec(num_blocks=2, reader_machines_per_server=1)
    driver = _driver(spec)
    hosts = {host for host, _cid, _kind in driver._clients}
    assert hosts and all(isinstance(h, ShardClientHost) for h in hosts)
