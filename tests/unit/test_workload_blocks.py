"""Unit tests for the block-mode workload knobs: Zipf skew and the
spec validation that guards it."""

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


def test_negative_skew_rejected():
    with pytest.raises(ConfigurationError):
        WorkloadSpec(num_blocks=4, block_skew=-0.1).validate()


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


def test_fixed_value_size_without_tuple():
    spec = WorkloadSpec(num_blocks=2, reader_machines_per_server=1)
    driver = _driver(spec)
    assert len(driver._next_value(1)) == spec.value_size


def test_block_mode_machines_are_shard_clients():
    from repro.runtime.sharded import ShardClientHost

    spec = WorkloadSpec(num_blocks=2, reader_machines_per_server=1)
    driver = _driver(spec)
    hosts = {host for host, _cid, _kind in driver._clients}
    assert hosts and all(isinstance(h, ShardClientHost) for h in hosts)
