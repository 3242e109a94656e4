"""Compare two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py A B

``A`` and ``B`` are each a ``result_<seed>.json`` file or a directory of
them (one set = the runs of one commit, ideally ten seeds).  For every
workload and end-to-end metric this prints both medians, the ratio B/A
(base: A's median), the bound from ``BENCHMARK.json`` and a verdict:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  the run-to-run spread of either set (distance between the
                first and third quartile over the median) exceeds the
                bound, so the sets cannot tell ``ok`` from ``worse``;
``ok``          otherwise.

Run on two sets of the same commit it is the A/A check of the benchmark
itself.  Exits 1 if any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Warn when the host calibration spin differs by more than this share.
CALIB_TOLERANCE = 0.10


def load_set(path: Path) -> dict:
    """{workload: {metric: [value per run]}} plus the calibration spins."""
    files = sorted(path.glob("result_*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no result_*.json under {path}")
    values: dict = {}
    calib: list[float] = []
    for file in files:
        for workload, document in json.loads(file.read_text())["workloads"].items():
            calib.append(document["calib_ms"])
            for metric, value in document["end_to_end"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(value)
    return {"values": values, "calib_ms": statistics.median(calib), "runs": len(files)}


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; None below four
    runs, where the quartiles say nothing."""
    if len(values) < 4:
        return None
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(``ok`` | ``worse`` | ``unresolved``, ratio B/A of the medians)."""
    base, other = statistics.median(a), statistics.median(b)
    ratio = other / base
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", ratio
    return ("worse" if worsening > bound else "ok"), ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    set_a, set_b = (load_set(Path(arg)) for arg in argv)
    print(f"A: {argv[0]} ({set_a['runs']} runs)   B: {argv[1]} ({set_b['runs']} runs)")
    calib_a, calib_b = set_a["calib_ms"], set_b["calib_ms"]
    if abs(calib_b / calib_a - 1.0) > CALIB_TOLERANCE:
        print(f"WARNING: host.calib_ms differs by more than "
              f"{CALIB_TOLERANCE:.0%} (A {calib_a:.2f} ms, B {calib_b:.2f} ms): "
              f"the hosts were not equally fast; wall-clock rows are suspect")
    worse = 0
    header = (f"{'workload':<12} {'metric':<15} {'A median':>12} {'B median':>12} "
              f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    print(header)
    for entry in SPEC["workloads"]:
        workload = entry["name"]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = set_a["values"].get(workload, {}).get(name)
            b = set_b["values"].get(workload, {}).get(name)
            if not a or not b:
                continue
            status, ratio = verdict(a, b, metric["better"], metric["bound"])
            worse += status == "worse"
            spreads = " ".join(
                f"{'n/a' if s is None else format(s, '.2%'):>9}"
                for s in (spread(a), spread(b))
            )
            print(f"{workload:<12} {name:<15} {statistics.median(a):>12.4f} "
                  f"{statistics.median(b):>12.4f} {ratio:>7.4f} {spreads} "
                  f"{metric['bound']:>6.0%}  {status}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
