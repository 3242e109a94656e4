"""The trace-counter registry: constants, scoped helpers, and the
names real runs leave in a trace.

Every counter a run tallies is registered, and every registry constant
the chaos gate or the bench runner reads is tallied by some run: a
renamed emit site fails both, so a gate can never read an eternally
zero counter (the bug the registry exists to prevent).  A literal that
matches the registry is harmless until such a rename, so spelling a
registered name as a literal is not checked.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

import repro.bench.runner as bench_runner
import repro.chaos.runner as chaos_runner
from repro.chaos import generate_schedule, run_schedule
from repro.chaos.schedule import PROFILES
from repro.runtime import sim_net
from repro.sim import counters
from repro.sim.counters import (
    FD_WRONG_SUSPICIONS,
    NET_KINDS,
    NET_UNICASTS,
    NET_WIRE_BYTES,
    REGISTERED_COUNTERS,
    net_suffix,
    scoped,
)
from repro.sim.trace import TraceRecorder
from tests.integration.test_elastic_sharding import crash_destination_mid_migration
from tests.integration.test_trace_digest import RUNS


def test_registered_counters_cover_every_fixed_constant():
    fixed = {
        value
        for name, value in vars(counters).items()
        if name.isupper() and isinstance(value, str) and "." in value
    }
    assert fixed == set(REGISTERED_COUNTERS)


def test_registered_names_are_dotted_and_unique():
    assert len(REGISTERED_COUNTERS) == 56
    for name in REGISTERED_COUNTERS:
        family, _, leaf = name.partition(".")
        assert family and leaf, name


def test_scoped_builds_per_network_names():
    assert scoped("lan0", NET_WIRE_BYTES) == "lan0.wire_bytes"
    assert scoped("ring", NET_UNICASTS) == "ring.unicasts"


def test_net_suffix_matches_scoped_names():
    for kind in NET_KINDS:
        assert scoped("net", kind).endswith(net_suffix(kind))


def test_unknown_scoped_kind_rejected():
    with pytest.raises(ValueError):
        scoped("lan0", "wire_byte")
    with pytest.raises(ValueError):
        net_suffix("unicast")


def _chaos(profile: str, index: int):
    schedule = generate_schedule(0, index, 4, PROFILES[profile])
    protocol = "sharded" if schedule.num_blocks > 1 else "core"
    return lambda: run_schedule(schedule, protocol)


#: The four pinned-digest runs, schedules 0-3 of five chaos profiles,
#: and the one scenario that aborts a migration.
TALLIED_RUNS = [
    *RUNS.values(),
    *(
        _chaos(profile, index)
        for profile in ("core", "partition", "lease", "coded", "skew")
        for index in range(4)
    ),
    crash_destination_mid_migration,
]


def tally_keys(runs) -> set[str]:
    """Every counter name the runs leave in a trace's tally."""
    recorders = []
    init = TraceRecorder.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorders.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TraceRecorder, "__init__", keep)
        for run in runs:
            run()
    return {name for recorder in recorders for name in recorder.counters}


def unregistered(keys: set[str]) -> list[str]:
    """Tallied names that are neither registered nor ``scoped(net, kind)``."""
    return sorted(
        key for key in keys
        if key not in REGISTERED_COUNTERS and key.rpartition(".")[2] not in NET_KINDS
    )  # fmt: skip


def consumed() -> set[str]:
    """The registry constants the chaos gate and the bench runner hold."""
    return {
        value
        for module in (chaos_runner, bench_runner)
        for value in vars(module).values()
        if isinstance(value, str) and value in REGISTERED_COUNTERS
    }


@pytest.fixture(scope="module")
def tallied() -> set[str]:
    return tally_keys(TALLIED_RUNS)


def test_every_tallied_counter_is_registered(tallied):
    assert unregistered(tallied) == []


def test_every_consumed_counter_is_tallied_by_some_run(tallied):
    assert len(consumed()) == 28
    assert sorted(consumed() - tallied) == []


def test_renaming_gated_counter_emit_site_is_caught(monkeypatch):
    """``count(FD_WRONG_SUSPICIONS)`` typo'd in ``ServerHost.count``:
    the typo is unregistered, and the gate's counter is never tallied."""
    method = inspect.getsource(sim_net.ServerHost.count)
    assert "count(FD_WRONG_SUSPICIONS)" in method
    typo = method.replace("count(FD_WRONG_SUSPICIONS)", 'count("fd.wrong_suspicionz")')
    namespace = dict(vars(sim_net))
    exec(textwrap.dedent(typo), namespace)
    monkeypatch.setattr(sim_net.ServerHost, "count", namespace["count"])
    keys = tally_keys(_chaos("partition", i) for i in range(4))
    assert "fd.wrong_suspicionz" in unregistered(keys)
    assert FD_WRONG_SUSPICIONS in consumed() - keys
