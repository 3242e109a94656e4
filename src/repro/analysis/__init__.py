"""History recording, linearizability checking and statistics.

* :mod:`repro.analysis.history` — records operation invocation/response
  events from live runs;
* :mod:`repro.analysis.linearizability` — checks a recorded history
  against the atomic-register specification (the paper's correctness
  property), with both an exponential reference checker (Wing–Gong) and a
  fast register-specific checker (Gibbons–Korach style);
* :mod:`repro.analysis.stats` — throughput/latency aggregation used by
  the benchmark harness, including the paper's repeated-run averaging.
"""

from repro.analysis.history import History, Operation
from repro.analysis.linearizability import (
    check_register_history,
    check_register_history_slow,
    check_tagged_history,
)
from repro.analysis.stats import LatencyStats, mbit_per_s

__all__ = [
    "History",
    "LatencyStats",
    "Operation",
    "check_register_history",
    "check_register_history_slow",
    "check_tagged_history",
    "mbit_per_s",
]
