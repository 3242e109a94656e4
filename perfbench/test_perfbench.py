"""Fast checks of the benchmark itself (collected by the tier-1 run).

Four ``--smoke`` invocations run side by side: all four workloads, the
three simulator workloads again with the same seed, ``mixed_open`` with
another seed, and one traced workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SIM_WORKLOADS = [name for name in WORKLOADS if name != "tcp_mixed"]
#: Simulated-clock metrics: functions of the seed alone.
SIM_CLOCK_METRICS = (
    "sim_ops_per_s", "write_p50_ms", "write_p99_ms", "read_p50_ms", "read_p99_ms",
)


def _verdicts(compare_output: str) -> list[str]:
    return [line.split()[-1] for line in compare_output.splitlines()[2:]]


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{label: (contract lines by workload, result document)}."""
    plans = {
        "all": (7, 0, WORKLOADS),
        "again": (7, 0, SIM_WORKLOADS),
        "reseeded": (8, 0, ["mixed_open"]),
        "traced": (7, 1, ["coded_large"]),
    }
    started = {}
    for label, (seed, trace, workloads) in plans.items():
        out = tmp_path_factory.mktemp(label)
        command = [
            sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed),
            "--trace", str(trace), "--out", str(out),
        ]
        for workload in workloads:
            command += ["--workload", workload]
        started[label] = (
            out, subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        )
    results = {}
    for label, (out, process) in started.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, stdout
        lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        seed, trace, workloads = plans[label]
        name = f"{'layers' if trace else 'result'}_{seed}.json"
        document = json.loads((out / name).read_text())
        results[label] = (dict(zip(workloads, lines)), document, out)
    return results


def test_every_workload_emits_exactly_the_declared_end_to_end_metrics(runs):
    lines, document, _out = runs["all"]
    assert list(document["workloads"]) == WORKLOADS
    for workload in WORKLOADS:
        line = lines[workload]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == _names("end_to_end")
        for entry in SPEC["end_to_end"]:
            metric = line["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert metric["value"] > 0, (workload, entry["name"])


def test_traced_run_emits_exactly_the_declared_per_layer_metrics(runs):
    lines, _document, out = runs["traced"]
    metrics = lines["coded_large"]["metrics"]
    assert list(metrics) == _names("per_layer")
    value = {name: metric["value"] for name, metric in metrics.items()}
    # The layers separate: the simulator and the coder work, the wire
    # codec does nothing.
    assert value["core.coding.calls_per_op"] > 0
    assert value["sim.events.events_per_op"] > 0
    assert value["transport.codec.calls_per_op"] == 0
    shares = sum(v for name, v in value.items() if name.endswith(".cpu_share"))
    assert shares + value["trace.unattributed_share"] == pytest.approx(1.0, abs=0.02)
    trace = json.loads((out / "trace_coded_large.json").read_text())
    assert trace["spans"] and trace["aggregates"]


def test_same_seed_gives_identical_simulated_results(runs):
    _lines, first, _ = runs["all"]
    _lines, second, _ = runs["again"]
    for workload in SIM_WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        for metric in SIM_CLOCK_METRICS:
            assert a["end_to_end"][metric] == b["end_to_end"][metric], (workload, metric)
        assert a["attempted"] == b["attempted"]
        assert [(w["read"], w["write"]) for w in a["windows"]] == [
            (w["read"], w["write"]) for w in b["windows"]
        ]


def test_another_seed_changes_the_open_loop_arrivals(runs):
    _lines, first, _ = runs["all"]
    _lines, other, _ = runs["reseeded"]
    a, b = first["workloads"]["mixed_open"], other["workloads"]["mixed_open"]
    assert a["attempted"] != b["attempted"] or a["windows"] != b["windows"]
    assert a["end_to_end"]["read_p50_ms"] != b["end_to_end"]["read_p50_ms"]


def test_compare_flags_a_worse_set(runs, tmp_path):
    _lines, document, out = runs["all"]
    worse = json.loads(json.dumps(document))
    for entry in worse["workloads"].values():
        entry["end_to_end"]["wall_ops_per_s"] *= 0.5
    (tmp_path / "result_7.json").write_text(json.dumps(worse))
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        compare + [str(out), str(out)], stdout=subprocess.PIPE, text=True
    )
    assert same.returncode == 0 and _verdicts(same.stdout).count("worse") == 0
    regressed = subprocess.run(
        compare + [str(out), str(tmp_path)], stdout=subprocess.PIPE, text=True
    )
    assert regressed.returncode == 1
    assert _verdicts(regressed.stdout).count("worse") == len(WORKLOADS)
