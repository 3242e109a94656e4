"""The chaos CLI's per-feature batch gates, on synthetic runs.

``run_schedule`` is replaced by a stub that returns a live, linearizable
run with chosen trace counters, so no simulation runs.  Every fault kind
fires and every feature counter is nonzero except the one a case zeroes:
that feature's gate must fail the batch at its minimum size, with its
own ``FAIL:`` line, and stay quiet one run below it.

The gates each profile owes are listed here rather than read from
``repro.chaos.runner.FEATURES``: deleting a row, or switching one on for
another profile, turns these tests red.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.chaos.__main__ as cli
from repro.chaos.runner import ChaosResult
from repro.chaos.schedule import PROFILES
from repro.sim.counters import (
    CODING_REPAIRS,
    FD_WRONG_SUSPICIONS,
    LEASE_LOCAL_READS,
    MIGRATION_ABORTED,
    MIGRATION_COMPLETED,
    NEMESIS_CLOCK_SKEWS,
    NEMESIS_CUT_DROPS,
    NEMESIS_DELAYED,
    NEMESIS_DROPS,
    NEMESIS_DUP_DELIVERIES,
    NEMESIS_PAUSES,
    NEMESIS_THROTTLES,
    PROCESS_CRASHES,
    PROCESS_RESTARTS,
)

#: Counters that make every fault kind count as fired.
FIRED = (
    PROCESS_CRASHES, PROCESS_RESTARTS, NEMESIS_CUT_DROPS, NEMESIS_DROPS,
    NEMESIS_DELAYED, NEMESIS_DUP_DELIVERIES, NEMESIS_THROTTLES,
    NEMESIS_PAUSES, NEMESIS_CLOCK_SKEWS,
)  # fmt: skip

SUSPICION = (
    FD_WRONG_SUSPICIONS, 10,
    "FAIL: no run wrongly suspected a live server — the batch never "
    "exercised the imperfect detector's defining hazard",
)  # fmt: skip
LEASE = (
    LEASE_LOCAL_READS, 10,
    "FAIL: no read was served locally under a lease — the batch fenced "
    "everything and never exercised the leased path",
)  # fmt: skip
REPAIR = (
    CODING_REPAIRS, 10,
    "FAIL: no fragment was ever repaired from peers — the batch never "
    "exercised coded durability (merge union / RADON repair), only coded "
    "steady state",
)  # fmt: skip
ABORT = (
    MIGRATION_ABORTED, 20,
    "FAIL: no migration was ever aborted — the batch never exercised the "
    "crash-mid-migration abort path (staged state discarded, parked "
    "requests replayed)",
)  # fmt: skip

#: Profile -> the feature gates its batches owe: (counter, minimum
#: gated runs, the line a batch that never fired it prints).
GATES = {
    "core": [],
    "gentle": [],
    "partition": [SUSPICION],
    "lease": [SUSPICION, LEASE],
    "coded": [SUSPICION, REPAIR],
    "scale": [],
    "skew": [ABORT],
}
EVIDENCE = (FD_WRONG_SUSPICIONS, LEASE_LOCAL_READS, CODING_REPAIRS, MIGRATION_ABORTED)


def _batch(monkeypatch, capsys, profile: str, runs: int, zero: tuple[str, ...]):
    counts = Counter({name: 1 for name in FIRED + EVIDENCE + (MIGRATION_COMPLETED,)})
    for name in zero:
        counts[name] = 0

    def stub(schedule, protocol="core"):
        return ChaosResult(
            schedule, protocol, linearizable=True, reason="", ops_completed=1,
            ops_open=0, ops_failed=0, ops_required=1, counters=Counter(counts),
            migration_required=PROFILES[profile].elastic,
        )  # fmt: skip

    monkeypatch.setattr(cli, "run_schedule", stub)
    code = cli.main(["--profile", profile, "--runs", str(runs), "-q"])
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    return code, fails


def test_every_profile_is_listed():
    assert sorted(GATES) == sorted(PROFILES)


@pytest.mark.parametrize(
    "profile,gate",
    [(profile, gate) for profile, gates in GATES.items() for gate in gates],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_a_feature_gate_fails_a_batch_that_never_fired_it(
    monkeypatch, capsys, profile, gate
):
    counter, min_runs, line = gate
    assert _batch(monkeypatch, capsys, profile, min_runs, (counter,)) == (1, [line])
    assert _batch(monkeypatch, capsys, profile, min_runs - 1, (counter,)) == (0, [])


@pytest.mark.parametrize("profile", sorted(GATES))
def test_no_other_feature_gate_applies(monkeypatch, capsys, profile):
    """Every evidence counter zero at the largest gate's batch size:
    exactly the profile's own gates fail."""
    lines = [line for _counter, _runs, line in GATES[profile]]
    code, fails = _batch(monkeypatch, capsys, profile, 20, EVIDENCE)
    assert (code, fails) == (1 if lines else 0, lines)
