"""The perf-snapshot runner: determinism, wire accounting, the gate.

The snapshots committed as BENCH_*.json are only trustworthy if (a) the
simulated numbers are bit-deterministic per seed, (b) batching at the
default depth changes the wire accounting but not the simulated result
on the dedicated-ring topology, and (c) the drift gate fails when a
committed snapshot no longer matches the code — on any moved field and
on a scenario only one side has.  All three are pinned here; the CLI
round-trip runs on a shrunken scenario so the tier-1 suite stays fast.
"""

import json
from dataclasses import replace

import pytest

from repro.bench import runner
from repro.bench.runner import Scenario, check_drift, run_scenario
from repro.core.config import ProtocolConfig
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
        replace(TINY, protocol=ProtocolConfig(batch_max_messages=1)),
        seed=7, quick=True,
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


def _full_snapshot(tag: str = "a") -> dict:
    """A snapshot shaped like a real one: top-level run fields and one
    scenario with nested records and wall-clock fields."""
    return {
        "schema": 1, "tag": tag, "quick": True, "base_seed": 7,
        "batch_max_messages": 4, "python": "3.11.7",
        "scenarios": [{
            "name": "fig3b_write_4",
            "read": {"ops": 0, "sim_ops_per_s": 0.0},
            "write": {"ops": 844, "sim_ops_per_s": 2813.3, "p50_ms": 45.3},
            "wall_seconds": 0.26, "wall_ops_per_s": 3243.4,
            "wire": {"messages_per_op": 3.51, "retransmits": 0},
            "leases": None,
        }],
    }  # fmt: skip


def test_check_drift_names_every_deterministic_field_that_moved():
    baseline = _full_snapshot()
    # Another host, another run: wall fields, tag and python never drift.
    rerun = _full_snapshot(tag="ci")
    rerun["python"] = "3.12.1"
    rerun["scenarios"][0].update(wall_seconds=0.5, wall_ops_per_s=1700.0)
    assert check_drift(rerun, baseline) == []

    # A synthetic drift: the gate names each field that moved.
    drifted = _full_snapshot()
    scenario = drifted["scenarios"][0]
    scenario["write"]["ops"] = 848
    scenario["wire"]["messages_per_op"] = 3.22
    scenario["leases"] = {"local_reads": 3}
    drifted["base_seed"] = 8
    assert check_drift(drifted, baseline) == [
        "snapshot: base_seed 7 -> 8",
        "fig3b_write_4: leases None -> (absent)",
        "fig3b_write_4: leases.local_reads (absent) -> 3",
        "fig3b_write_4: wire.messages_per_op 3.51 -> 3.22",
        "fig3b_write_4: write.ops 844 -> 848",
    ]
    # A baseline scenario the run no longer has is stale too.
    drifted["scenarios"] = []
    assert check_drift(drifted, baseline)[-1] == "fig3b_write_4: not in this run"


def test_check_regression_announces_skipped_scenarios(tmp_path, monkeypatch, capsys):
    """A scenario the baseline does not know fails the gate by name: an
    unannounced skip is how a renamed scenario slips past it ungated."""
    renamed = _full_snapshot()
    renamed["scenarios"][0]["name"] = "fig3b_write_4_renamed"
    assert check_drift(renamed, _full_snapshot()) == [
        "fig3b_write_4: not in this run",
        "fig3b_write_4_renamed: not in the baseline",
    ]
    monkeypatch.setattr(runner, "SCENARIOS", (TINY,))
    assert runner.main(["--tag", "base", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(runner, "SCENARIOS", (TINY, replace(TINY, name="tiny_new")))
    assert runner.main(
        ["--tag", "grown", "--out", str(tmp_path),
         "--check-regression", str(tmp_path / "BENCH_base.json")]
    ) == 1
    assert "tiny_new: not in the baseline" in capsys.readouterr().out


def test_cli_writes_snapshot_and_gates(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "SCENARIOS", (TINY,))
    assert runner.main(["--tag", "a", "--out", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_a.json"
    snapshot = json.loads(path.read_text())
    assert snapshot["schema"] == runner.SCHEMA_VERSION
    assert snapshot["batch_max_messages"] == ProtocolConfig().batch_max_messages
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
    # So does a baseline stale in any other deterministic field.
    record["write"]["sim_ops_per_s"] /= 2
    record["write"]["ops"] += 1
    stale = tmp_path / "BENCH_stale.json"
    stale.write_text(json.dumps(snapshot))
    assert runner.main(
        ["--tag", "d", "--out", str(tmp_path),
         "--check-regression", str(stale)]
    ) == 1
    assert "write.ops" in capsys.readouterr().out


def test_cli_rejects_window_mismatch_and_bad_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "SCENARIOS", (TINY,))
    assert runner.main(["--tag", "quickbase", "--out", str(tmp_path)]) == 0
    # A --full run must refuse to gate against a quick-window baseline:
    # the windows differ, so no simulated number is comparable.
    assert runner.main(
        ["--tag", "full", "--out", str(tmp_path), "--full",
         "--check-regression", str(tmp_path / "BENCH_quickbase.json")]
    ) == 1
    assert "snapshot: quick True -> False" in capsys.readouterr().out
    # The gate has no tolerance and the suite no batch override.
    for flag in ("--threshold", "--batch"):
        with pytest.raises(SystemExit):
            runner.main([flag, "1", "--out", str(tmp_path)])
