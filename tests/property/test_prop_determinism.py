"""Determinism property: identical seed => byte-identical event trace.

Chaos failures are only actionable if a failing schedule can be replayed
bit-for-bit from its seed, so the whole simulator — scheduler ordering,
RNG streams, nemesis fault rolls — must be a pure function of the seed.
Two full cluster runs (network traffic, faults, reconfiguration) with
the same seed must produce byte-identical `repro.sim.trace` event logs;
a different seed must not.
"""

from __future__ import annotations

import pytest

from repro.chaos import generate_schedule, run_schedule
from tests.helpers import run_faulted_cluster


def _run_cluster(seed: int) -> tuple[bytes, dict]:
    """One full cluster run under faults; returns (trace bytes, counters)."""
    cluster = run_faulted_cluster(seed)
    blob = "\n".join(repr(event) for event in cluster.env.trace.events).encode()
    return blob, dict(cluster.env.trace.counters)


def test_identical_seed_gives_byte_identical_trace():
    blob_a, counters_a = _run_cluster(seed=1234)
    blob_b, counters_b = _run_cluster(seed=1234)
    assert blob_a == blob_b
    assert counters_a == counters_b
    assert counters_a.get("nemesis.delayed", 0) > 0, "faults must have fired"


def test_different_seed_gives_different_trace():
    blob_a, _ = _run_cluster(seed=1234)
    blob_b, _ = _run_cluster(seed=4321)
    # The nemesis jitter/drop rolls depend on the seed, so the timing of
    # deliveries (and hence the event log) must differ.
    assert blob_a != blob_b


@pytest.mark.parametrize("index", [0, 7, 13])
def test_chaos_runs_replay_identically(index):
    """The chaos harness property: a run is a pure function of its
    schedule coordinates — histories and verdicts replay exactly."""
    schedule_a = generate_schedule(seed=5, index=index)
    schedule_b = generate_schedule(seed=5, index=index)
    assert schedule_a == schedule_b
    result_a = run_schedule(schedule_a)
    result_b = run_schedule(schedule_b)
    assert result_a.linearizable and result_b.linearizable
    assert result_a.ops_completed == result_b.ops_completed
    assert result_a.exercised == result_b.exercised
