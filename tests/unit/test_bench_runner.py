"""The perf-snapshot runner: determinism, wire accounting, the gate.

The snapshots committed as BENCH_*.json are only trustworthy if (a) the
simulated numbers are bit-deterministic per seed, (b) batching at the
default depth changes the wire accounting but not the simulated result
on the dedicated-ring topology, and (c) the regression gate actually
fails on a drop.  All three are pinned here; the CLI round-trip runs on
a shrunken scenario so the tier-1 suite stays fast.
"""

import json

import pytest

from repro.bench import runner
from repro.bench.runner import (
    Scenario,
    check_regression,
    run_scenario,
    run_suite,
)
from repro.workload.scenarios import write_only_scenario

#: One small, fast measurement point (2 servers, quick windows).
TINY = Scenario("tiny_write_2", write_only_scenario, servers=2)


def test_simulated_numbers_are_seed_deterministic():
    a = run_scenario(TINY, seed=7, quick=True)
    b = run_scenario(TINY, seed=7, quick=True)
    # Wall-clock fields differ run to run; everything simulated must not.
    for record in (a, b):
        record.pop("wall_seconds")
        record.pop("wall_ops_per_s")
    assert a == b


def test_batching_changes_wire_accounting_not_simulated_result():
    batched = run_scenario(TINY, seed=7, quick=True)
    unbatched = run_scenario(
        TINY, seed=7, quick=True,
        protocol=runner.ProtocolConfig(batch_max_messages=1),
    )
    assert batched["wire"]["batched_frames"] > 0
    assert unbatched["wire"]["batched_frames"] == 0
    # Simulated behaviour is preserved at the default depth: throughput
    # and latency move by at most a fraction of a percent (frame timing
    # shifts slightly; no store-and-forward penalty).
    assert batched["write"]["sim_ops_per_s"] == pytest.approx(
        unbatched["write"]["sim_ops_per_s"], rel=0.02
    )
    assert batched["write"]["p50_ms"] == pytest.approx(
        unbatched["write"]["p50_ms"], rel=0.02
    )
    assert (
        batched["wire"]["messages_per_op"] < unbatched["wire"]["messages_per_op"]
    ), "batch frames must coalesce unicasts"
    assert batched["wire"]["bytes_per_op"] < unbatched["wire"]["bytes_per_op"] * 1.01


def _snapshot(rate: float) -> dict:
    return {
        "scenarios": [
            {
                "name": "s",
                "read": {"ops": 0, "sim_ops_per_s": 0.0},
                "write": {"ops": 100, "sim_ops_per_s": rate},
            }
        ]
    }


def test_check_regression_flags_only_real_drops():
    baseline = _snapshot(1000.0)
    assert check_regression(_snapshot(1000.0), baseline) == []
    assert check_regression(_snapshot(850.0), baseline) == []  # within 20%
    failures = check_regression(_snapshot(700.0), baseline)
    assert len(failures) == 1 and "s/write" in failures[0]
    # Scenarios unknown to the baseline are ignored, not failed.
    renamed = _snapshot(700.0)
    renamed["scenarios"][0]["name"] = "other"
    assert check_regression(renamed, baseline) == []


def test_check_regression_announces_skipped_scenarios(capsys):
    """A scenario the baseline does not know must be *announced*, not
    silently ignored — an unannounced skip is how a renamed scenario
    slips past the gate ungated."""
    renamed = _snapshot(700.0)
    renamed["scenarios"][0]["name"] = "other"
    assert check_regression(renamed, _snapshot(1000.0)) == []
    assert "skipped: other (not in baseline)" in capsys.readouterr().out


def test_cli_writes_snapshot_and_gates(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "SCENARIOS", (TINY,))
    assert runner.main(["--tag", "a", "--out", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_a.json"
    snapshot = json.loads(path.read_text())
    assert snapshot["schema"] == runner.SCHEMA_VERSION
    assert snapshot["batch_max_messages"] == runner.ProtocolConfig().batch_max_messages
    [record] = snapshot["scenarios"]
    assert record["write"]["ops"] > 0
    assert record["wire"]["bytes_per_op"] > 0

    # Gating against itself passes; against an inflated baseline, fails.
    assert runner.main(
        ["--tag", "b", "--out", str(tmp_path),
         "--check-regression", str(path)]
    ) == 0
    record["write"]["sim_ops_per_s"] *= 2
    inflated = tmp_path / "BENCH_inflated.json"
    inflated.write_text(json.dumps(snapshot))
    assert runner.main(
        ["--tag", "c", "--out", str(tmp_path),
         "--check-regression", str(inflated)]
    ) == 1


def test_cli_rejects_window_mismatch_and_bad_flags(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "SCENARIOS", (TINY,))
    assert runner.main(["--tag", "quickbase", "--out", str(tmp_path)]) == 0
    # A --full run must refuse to gate against a quick-window baseline:
    # the windows differ, so the ops/s comparison would be meaningless.
    assert runner.main(
        ["--tag", "full", "--out", str(tmp_path), "--full",
         "--check-regression", str(tmp_path / "BENCH_quickbase.json")]
    ) == 1
    with pytest.raises(SystemExit):
        runner.main(["--batch", "0", "--out", str(tmp_path)])
