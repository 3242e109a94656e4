"""Gates on the *committed* BENCH_batched.json snapshot.

The coded backend's acceptance number — ring bytes per write at 64 KiB
values reduced to <= 0.5x the replicated twin (k=2, n=4) — lives in the
committed snapshot, not in a live run.  Pinning it here means a rerun
that regenerates the snapshot with a regressed ratio fails tier-1
before CI ever looks at throughput.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The committed snapshot(s) every twin-scenario gate below must hold in.
SNAPSHOTS = ("BENCH_batched.json",)


def _scenario(snapshot: dict, name: str) -> dict:
    for record in snapshot["scenarios"]:
        if record["name"] == name:
            return record
    raise AssertionError(f"{name} missing from snapshot")


@pytest.mark.parametrize("filename", SNAPSHOTS)
def test_coded_ring_bytes_at_most_half_of_replicated(filename):
    snapshot = json.loads((REPO_ROOT / filename).read_text())
    replicated = _scenario(snapshot, "replicated_large_value")
    coded = _scenario(snapshot, "coded_large_value")
    rep_bytes = replicated["wire"]["ring_bytes_per_op"]
    coded_bytes = coded["wire"]["ring_bytes_per_op"]
    assert rep_bytes and coded_bytes
    assert coded_bytes <= 0.5 * rep_bytes, (
        f"{filename}: coded ring bytes/op {coded_bytes} exceeds half the "
        f"replicated pair's {rep_bytes}"
    )
    # The saving must come from actual striping, not an idle scenario.
    assert coded["coding"]["fragment_stores"] > 0
    assert coded["write"]["ops"] > 0


@pytest.mark.parametrize("filename", SNAPSHOTS)
def test_large_value_pair_differs_only_in_backend(filename):
    """The crossover quote is meaningless unless the pair is twinned:
    same workload, same ring size, same windows — value backend aside."""
    snapshot = json.loads((REPO_ROOT / filename).read_text())
    replicated = _scenario(snapshot, "replicated_large_value")
    coded = _scenario(snapshot, "coded_large_value")
    assert replicated["servers"] == coded["servers"]
    assert replicated["topology"] == coded["topology"]
    assert replicated["window_s"] == coded["window_s"]
    assert replicated["coding"] is None
    assert coded["coding"] is not None


@pytest.mark.parametrize("filename", SNAPSHOTS)
def test_elastic_beats_static_by_two_x_on_the_skewed_pair(filename):
    """ROADMAP item 3's acceptance number: under the Zipf(1.1) hot-block
    workload, elastic placement (live migration + splits) must deliver at
    least 2x the combined throughput of the static packed twin — and the
    gain must come from migrations actually happening, not a lucky run."""
    snapshot = json.loads((REPO_ROOT / filename).read_text())
    static = _scenario(snapshot, "skewed_static")
    elastic = _scenario(snapshot, "skewed_elastic")
    static_ops = static["read"]["sim_ops_per_s"] + static["write"]["sim_ops_per_s"]
    elastic_ops = elastic["read"]["sim_ops_per_s"] + elastic["write"]["sim_ops_per_s"]
    assert static_ops > 0
    assert elastic_ops >= 2.0 * static_ops, (
        f"{filename}: elastic {elastic_ops:.0f} sim ops/s is under 2x the "
        f"static pair's {static_ops:.0f}"
    )
    assert elastic["sharding"]["migrations_completed"] >= 1
    assert elastic["sharding"]["placement_version"] >= 1
    # The static twin must be genuinely static — no rebalancer at all.
    assert static["sharding"]["migrations_completed"] == 0
    assert static["sharding"]["placement_version"] == 0


@pytest.mark.parametrize("filename", SNAPSHOTS)
def test_skewed_pair_differs_only_in_elasticity(filename):
    """Same twinning rule as the coded pair: the 2x quote only means
    something if the scenarios match in everything but the rebalancer."""
    snapshot = json.loads((REPO_ROOT / filename).read_text())
    static = _scenario(snapshot, "skewed_static")
    elastic = _scenario(snapshot, "skewed_elastic")
    assert static["servers"] == elastic["servers"]
    assert static["topology"] == elastic["topology"]
    assert static["window_s"] == elastic["window_s"]
    assert static["sharding"]["num_blocks"] == elastic["sharding"]["num_blocks"]
    assert static["sharding"]["rings"] == elastic["sharding"]["rings"]
    assert static["sharding"]["elastic"] is False
    assert elastic["sharding"]["elastic"] is True
