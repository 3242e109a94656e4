"""Experiment registry: one entry per paper artifact.

Each ``run_*`` function regenerates the data series behind one figure or
analytical claim of the paper and returns ``(headers, rows)`` ready for
:func:`repro.bench.report.render_table`.  The benchmark suite under
``benchmarks/`` wraps these with timing and shape assertions; the
functions themselves are also directly usable::

    from repro.bench.experiments import run_fig3a
    headers, rows = run_fig3a(servers=(2, 4, 6, 8))

``quick`` mode (the shorter windows of :func:`repro.bench.harness.windows`)
is what the test-suite and ``benchmarks/`` run; the defaults are the
full windows.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines import (
    build_abd_cluster,
    build_chain_cluster,
    build_naive_cluster,
    build_tob_cluster,
)
from repro.bench.harness import run_latency_point, run_throughput_point, windows
from repro.core.config import ProtocolConfig
from repro.rounds import RoundStorage, run_figure1
from repro.rounds.tob_round import RoundTobStorage
from repro.workload.scenarios import (
    contention_scenario,
    read_only_scenario,
    write_only_scenario,
)

DEFAULT_SERVERS = (2, 3, 4, 5, 6, 7, 8)


# ----------------------------------------------------------------------
# FIG1 — motivation: quorum vs local reads in the round model
# ----------------------------------------------------------------------


def run_fig1(servers: Sequence[int] = (3, 5, 8), rounds: int = 150):
    """Figure 1: same latency, 3x (then n x) read throughput."""
    headers = ["servers", "A tput/round", "B tput/round", "A latency", "B latency"]
    rows = []
    for n in servers:
        a = run_figure1("A", num_servers=n, rounds=rounds)
        b = run_figure1("B", num_servers=n, rounds=rounds)
        rows.append([n, a.throughput_per_round, b.throughput_per_round,
                     a.first_latency, b.first_latency])
    return headers, rows


# ----------------------------------------------------------------------
# SEC4 — the analytical claims, executed
# ----------------------------------------------------------------------


def run_sec4(servers: Sequence[int] = (2, 3, 5, 8), rounds: int = 200):
    """Section 4: latency 2 / 2N+2; throughput 1 / n (also contended)."""
    headers = [
        "servers", "read lat", "write lat", "2N+2",
        "write tput", "read tput", "read tput contended",
    ]
    rows = []
    for n in servers:
        rows.append([
            n,
            RoundStorage(n).isolated_read_latency(),
            RoundStorage(n).isolated_write_latency(),
            2 * n + 2,
            RoundStorage(n).saturated_write_throughput(rounds),
            RoundStorage(n).saturated_read_throughput(rounds),
            RoundStorage(n).saturated_read_throughput(rounds, with_writes=True),
        ])
    return headers, rows


# ----------------------------------------------------------------------
# FIG3 — the four throughput charts
# ----------------------------------------------------------------------


def run_fig3a(servers: Sequence[int] = DEFAULT_SERVERS, quick: bool = False, seed: int = 0):
    """Read throughput without contention: linear, ~90 Mbit/s/server."""
    warmup, window = windows(quick)
    headers = ["servers", "total read Mbit/s", "per server"]
    rows = []
    for n in servers:
        p = run_throughput_point(n, read_only_scenario(), warmup=warmup, window=window, seed=seed)
        rows.append([n, p.read_mbps, p.read_mbps_per_server])
    return headers, rows


def run_fig3b(servers: Sequence[int] = DEFAULT_SERVERS, quick: bool = False, seed: int = 0):
    """Write throughput without contention: constant ~80-95 Mbit/s."""
    warmup, window = windows(quick)
    headers = ["servers", "total write Mbit/s", "per writer machine"]
    rows = []
    for n in servers:
        p = run_throughput_point(n, write_only_scenario(), warmup=warmup, window=window, seed=seed)
        rows.append([n, p.write_mbps, p.write_mbps / (2 * n)])
    return headers, rows


def run_fig3c(servers: Sequence[int] = DEFAULT_SERVERS, quick: bool = False, seed: int = 0):
    """Contention, separate networks: write constant, read linear."""
    warmup, window = windows(quick)
    headers = ["servers", "read Mbit/s", "read/server", "write Mbit/s"]
    rows = []
    for n in servers:
        p = run_throughput_point(n, contention_scenario(), warmup=warmup, window=window, seed=seed)
        rows.append([n, p.read_mbps, p.read_mbps_per_server, p.write_mbps])
    return headers, rows


def run_fig3d(servers: Sequence[int] = DEFAULT_SERVERS, quick: bool = False, seed: int = 0):
    """Contention, shared network: both lower; write roughly constant."""
    warmup, window = windows(quick)
    headers = ["servers", "read Mbit/s", "read/server", "write Mbit/s", "per-NIC total"]
    rows = []
    for n in servers:
        p = run_throughput_point(
            n, contention_scenario(), topology="shared",
            warmup=warmup, window=window, seed=seed,
        )
        rows.append(
            [n, p.read_mbps, p.read_mbps_per_server, p.write_mbps,
             p.read_mbps_per_server + p.write_mbps]
        )
    return headers, rows


# ----------------------------------------------------------------------
# FIG4 — latency vs number of servers
# ----------------------------------------------------------------------


def run_fig4(servers: Sequence[int] = DEFAULT_SERVERS, samples: int = 10, seed: int = 0):
    """Write latency linear in n (two ring traversals); read constant."""
    headers = ["servers", "read ms", "write ms"]
    rows = []
    for n in servers:
        p = run_latency_point(n, samples=samples, seed=seed)
        rows.append([n, p.read_ms, p.write_ms])
    return headers, rows


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


def run_ablation_quorum(servers: Sequence[int] = (2, 4, 8), quick: bool = True, seed: int = 0):
    """ABL1: ring vs ABD quorum — read scaling and write behaviour."""
    warmup, window = windows(quick)
    ro, wo = read_only_scenario(), write_only_scenario()
    headers = ["servers", "ring read", "abd read", "ring write", "abd write"]
    rows = []
    for n in servers:
        ring_r = run_throughput_point(n, ro, warmup=warmup, window=window, seed=seed)
        abd_r = run_throughput_point(n, ro, build=build_abd_cluster, warmup=warmup, window=window, seed=seed)
        ring_w = run_throughput_point(n, wo, warmup=warmup, window=window, seed=seed)
        abd_w = run_throughput_point(n, wo, build=build_abd_cluster, warmup=warmup, window=window, seed=seed)
        rows.append([n, ring_r.read_mbps, abd_r.read_mbps, ring_w.write_mbps, abd_w.write_mbps])
    return headers, rows


def run_ablation_chain(servers: Sequence[int] = (2, 4, 8), quick: bool = True, seed: int = 0):
    """ABL2: chain replication reads are tail-bound (flat)."""
    warmup, window = windows(quick)
    ro = read_only_scenario()
    headers = ["servers", "ring read", "chain read"]
    rows = []
    for n in servers:
        ring = run_throughput_point(n, ro, warmup=warmup, window=window, seed=seed)
        chain = run_throughput_point(n, ro, build=build_chain_cluster, warmup=warmup, window=window, seed=seed)
        rows.append([n, ring.read_mbps, chain.read_mbps])
    return headers, rows


def run_ablation_tob(servers: Sequence[int] = (2, 4, 8)):
    """ABL3: totally ordering reads caps round-model throughput at 1."""
    headers = ["servers", "tob ops/round", "ours write + reads /round"]
    rows = []
    for n in servers:
        tob = RoundTobStorage(n).saturated_throughput()
        ours_w = RoundStorage(n).saturated_write_throughput(150)
        ours_r = RoundStorage(n).saturated_read_throughput(150, with_writes=True)
        rows.append([n, tob, ours_w + ours_r])
    return headers, rows


def run_ablation_fairness(num_servers: int = 4, quick: bool = True, seed: int = 0):
    """ABL4: fairness and piggybacking switches.

    * ``fair_forwarding=False`` lets servers prefer their own clients'
      writes; under saturation the per-client completion spread widens
      (some clients starve).
    * ``piggyback_commits=False`` makes every commit a standalone
      message, costing ring slots.
    """
    warmup, window = windows(quick)
    spec = write_only_scenario()
    headers = ["config", "write Mbit/s", "p99/med latency"]
    rows = []
    for label, config in [
        ("default", ProtocolConfig()),
        ("no fairness", ProtocolConfig(fair_forwarding=False)),
        ("no piggyback", ProtocolConfig(piggyback_commits=False)),
    ]:
        p = run_throughput_point(
            num_servers, spec, warmup=warmup, window=window, protocol=config,
            seed=seed,
        )
        spread = (
            p.write_latency.p99 / p.write_latency.p50
            if p.write_latency.count else float("nan")
        )
        rows.append([label, p.write_mbps, spread])
    return headers, rows


def run_ablation_collisions(servers: Sequence[int] = (2, 4, 8), quick: bool = True, seed: int = 0):
    """ABL5: multicast write-all collapses under collisions; ring doesn't."""
    warmup, window = windows(quick)
    wo = write_only_scenario()
    headers = ["servers", "ring write", "naive unicast", "naive multicast"]
    rows = []
    for n in servers:
        ring = run_throughput_point(n, wo, warmup=warmup, window=window, seed=seed)
        uni = run_throughput_point(n, wo, build=build_naive_cluster, warmup=warmup, window=window, seed=seed)
        mc = run_throughput_point(
            n, wo, build=build_naive_cluster, warmup=warmup, window=window,
            use_multicast=True, seed=seed,
        )
        rows.append([n, ring.write_mbps, uni.write_mbps, mc.write_mbps])
    return headers, rows


def run_ablation_tob_wire(servers: Sequence[int] = (2, 4, 8), quick: bool = True, seed: int = 0):
    """Companion to ABL3 in the wire model: small read tokens let TOB
    reads scale further than the round model suggests — an honest caveat
    to the paper's round-model argument."""
    warmup, window = windows(quick)
    ro = read_only_scenario()
    headers = ["servers", "ours read", "tob read (wire model)"]
    rows = []
    for n in servers:
        ours = run_throughput_point(n, ro, warmup=warmup, window=window, seed=seed)
        tob = run_throughput_point(n, ro, build=build_tob_cluster, warmup=warmup, window=window, seed=seed)
        rows.append([n, ours.read_mbps, tob.read_mbps])
    return headers, rows


#: Registry used by ``python -m repro.bench``.
EXPERIMENTS = {
    "fig1": run_fig1,
    "sec4": run_sec4,
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig3c": run_fig3c,
    "fig3d": run_fig3d,
    "fig4": run_fig4,
    "abl1-quorum": run_ablation_quorum,
    "abl2-chain": run_ablation_chain,
    "abl3-tob": run_ablation_tob,
    "abl3-tob-wire": run_ablation_tob_wire,
    "abl4-fairness": run_ablation_fairness,
    "abl5-collisions": run_ablation_collisions,
}
