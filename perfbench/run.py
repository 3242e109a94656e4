"""perfbench: end-to-end and per-layer benchmark of the atomic store.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]

Runs each selected workload (default: all four) in fresh subprocesses
with tracing off, checks every recorded history for atomicity and prints
every end-to-end metric by name with its unit.  ``--trace 1`` instead
runs one reference window and one window with span wrappers installed
and prints the per-layer metrics.  After each workload one JSON line in
the benchmark contract's shape is printed; with a single ``--workload``
it is the last line of standard output.  Exits non-zero if any history
fails its atomicity check.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Set-ups per untraced run (fresh subprocess each); ``setup_s`` is their
#: median.
SETUP_REPEATS = 3
#: ``--smoke``: seconds per run, for the tests.
SMOKE_SECONDS = 0.4


def _worker(workload: str, args, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out), *extra,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, args) -> dict:
    extra = ["--smoke"] if args.smoke else []
    document = _worker(workload, args, *extra)
    if not args.trace:
        setups = [document["end_to_end"]["setup_s"]]
        for _ in range(0 if args.smoke else SETUP_REPEATS - 1):
            setups.append(_worker(workload, args, "--setup-only", *extra)["setup_s"])
        document["setups_s"] = setups
        document["end_to_end"]["setup_s"] = statistics.median(setups)
    return document


def _report(document: dict, trace: int) -> dict:
    """Print the metrics by name with their units; return the contract line."""
    section = "per_layer" if trace else "end_to_end"
    values = document[section]
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    check = document["check"]
    print(f"== {document['workload']} (seed {document['seed']}, "
          f"{document['seconds']:g} s, {section.replace('_', ' ')}) ==")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>14.4f} {unit}")
    attempted, failed = document["attempted"], document["failed"]
    samples = ", ".join(
        f"{kind} n={stats['n']}" for kind, stats in document["latency"].items()
    )
    print(f"  failed_op_share {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted}); latency samples: {samples}")
    print(f"  atomicity: {'ok' if check['ok'] else 'VIOLATED'} — {check['detail']}")
    return {
        "correct": check["ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured seconds per run on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s runs with a short warm-up (tests)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result_<seed>.json and traces")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found next to perfbench/", file=sys.stderr)
        return 2

    documents = {}
    correct = True
    for workload in args.workload or WORKLOADS:
        document = documents[workload] = run_workload(workload, args)
        line = _report(document, args.trace)
        correct = correct and line["correct"]
        print(json.dumps(line), flush=True)

    args.out.mkdir(parents=True, exist_ok=True)
    result = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": documents,
    }
    # Named so that a traced run does not overwrite the end-to-end result
    # of the same seed.
    name = f"{'layers' if args.trace else 'result'}_{args.seed}.json"
    (args.out / name).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
