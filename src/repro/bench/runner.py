"""Repeatable perf harness: seeded snapshots, committed as BENCH_<tag>.json.

``python -m repro.bench.experiments`` regenerates the paper's figures;
this module answers a different question: *did this commit make the
implementation faster or slower?*  It runs a small, fixed, fully-seeded
scenario set and records everything a regression hunt needs:

* **simulated** throughput (ops/s and payload Mbit/s over the measured
  window) — bit-deterministic for a given seed, so two snapshots of the
  same code are byte-comparable and CI can gate on them;
* **wall-clock** throughput (simulated ops completed per real second of
  runner CPU) — the number that moves when the hot path gets cheaper,
  even when the simulated result is unchanged (e.g. ring-frame batching
  coalesces wire frames without changing what the virtual network
  delivers per virtual second);
* latency percentiles, wire bytes/op and messages/op from the trace
  counters, and the batching counters.

Usage::

    python -m repro.bench.runner --tag batched               # default knob
    python -m repro.bench.runner --tag pr --check-regression BENCH_batched.json

``--check-regression`` exits non-zero if any scenario's *simulated*
ops/s fell more than 20 % below the baseline snapshot (wall-clock
numbers are machine-dependent and are reported, not gated).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.analysis.stats import LatencyStats, mbit_per_s
from repro.core.config import ProtocolConfig
from repro.core.sharded import build_elastic_cluster
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.sim_net import SimCluster
from repro.sim.counters import (
    CODING_CACHE_READS,
    CODING_FRAGMENT_STORES,
    CODING_RECONSTRUCTIONS,
    LEASE_FALLBACKS,
    LEASE_LOCAL_READS,
    NET_UNICASTS,
    NET_WIRE_BYTES,
    RELIABLE_BATCHED_FRAMES,
    RELIABLE_BATCHED_MESSAGES,
    RELIABLE_RETRANSMITS,
    RING_MESSAGES,
    SHARD_REDIRECTS,
    net_suffix,
    scoped,
)
from repro.workload.generator import LoadDriver
from repro.workload.scenarios import (
    contention_scenario,
    read_only_scenario,
    skewed_block_scenario,
    write_only_scenario,
)

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default regression tolerance for --check-regression (fraction lost).
REGRESSION_THRESHOLD = 0.20

#: Value size of the coded-vs-replicated pair: large enough that the
#: value dominates the frame (headers are noise at 64 KiB), so the ring
#: bytes/op ratio between the two backends approaches the analytical
#: (n-1)/(n*k) stripe bound.
LARGE_VALUE_SIZE = 64 * 1024


def large_write_scenario():
    """64 KiB write-only workload for the coded-vs-replicated pair."""
    return write_only_scenario(value_size=LARGE_VALUE_SIZE,
                               writer_concurrency=8)


def _calm_heartbeat(grant_leases: bool = True) -> HeartbeatConfig:
    """A calmer beacon cadence than the chaos default: the bench cluster
    is failure-free, so the detector only needs to renew leases, and n^2
    beacon traffic would otherwise dominate the event count the
    wall-clock numbers measure."""
    return HeartbeatConfig(
        period=0.05,
        timeout=0.3,
        check_interval=0.025,
        propose_grace=0.08,
        lease_duration=0.2,
        clock_drift_bound=0.02,
        grant_leases=grant_leases,
    )


@dataclass(frozen=True)
class Scenario:
    """One fixed measurement point of the snapshot suite."""

    name: str
    spec_factory: Callable
    servers: int
    topology: str = "dual"
    #: Per-scenario seed offset so scenarios never share RNG streams.
    seed_offset: int = 0
    #: Failure detector the cluster runs ("perfect" or "heartbeat").
    fd: str = "perfect"
    #: Epoch-scoped read leases (implies heartbeat + view_quorum): reads
    #: are served locally under a valid lease, zero ring messages.
    read_leases: bool = False
    #: With ``read_leases`` but no grants, every read takes the fence
    #: fallback around the ring — the measured circulating baseline the
    #: leased scenario's win is quoted against.
    grant_leases: bool = True
    #: Value backend ("replicated" or "coded"); "coded" implies
    #: view_quorum and sets coding_n to the ring size.
    value_coding: str = "replicated"
    #: Data fragments per stripe when ``value_coding == "coded"``.
    coding_k: int = 2
    #: Force quorum-installed views even without leases/coding — used so
    #: a replicated comparison scenario differs from its coded twin in
    #: the value backend only.
    view_quorum: bool = False
    #: Stretch warmup and window by this factor.  The 64 KiB pair needs
    #: it: at quick windows a replicated write pipeline completes only
    #: ~64 ops per window while holding 64 in flight, so ramp-up
    #: boundary effects distort bytes/op by ~25%; a 3x window makes the
    #: wire accounting steady-state.
    window_scale: float = 1.0
    #: Per-scenario batch-depth override (None = suite default).  The
    #: 64 KiB pair pins it to 1: batching four value-bearing pre-writes
    #: into a ~256 KiB frame adds store-and-forward latency at every
    #: hop, which is a property of message-count batching at huge value
    #: sizes, not of the value backend this pair measures.  Real stacks
    #: cap batch *bytes*; until the transport does, large-value frames
    #: travel alone.
    batch_max_messages: Optional[int] = None
    #: >0 runs the sharded block store over an explicit placement: the
    #: cluster is built by ``build_elastic_cluster`` and the workload
    #: spec must be a block-mode spec (``spec.num_blocks`` matching).
    num_blocks: int = 0
    #: Disjoint per-ring member tuples of the placement (block mode only).
    rings: tuple = ()
    #: Start every block packed on ring 0 ("capacity added, nothing
    #: moved yet") instead of spread contiguously.
    pack: bool = False
    #: Attach the rebalancer (live migration).  The static twin keeps
    #: the same placement table but never moves a block.
    elastic: bool = False


#: The snapshot suite.  ``fig3b_write_4`` is the headline workload of
#: the batching work (the paper's write-throughput regime: 2 writer
#: machines per server, 4 KiB values, concurrency 16).
SCENARIOS = (
    Scenario("fig3b_write_4", write_only_scenario, servers=4, seed_offset=0),
    Scenario("fig3b_write_8", write_only_scenario, servers=8, seed_offset=1),
    Scenario("fig3a_read_4", read_only_scenario, servers=4, seed_offset=2),
    Scenario("fig3c_mixed_4", contention_scenario, servers=4, seed_offset=3),
    Scenario(
        "fig3d_shared_4", contention_scenario, servers=4,
        topology="shared", seed_offset=4,
    ),
    # The leased-read pair: identical read-heavy workload and detector,
    # differing only in whether leases are granted.  Leased steady state
    # serves every read locally (0 ring messages/op); the no-grant
    # baseline fences every read around the ring — the messages/op
    # collapse and the wall-clock read-throughput multiple between the
    # two is the headline number of the leased read path.
    Scenario(
        "read_leased_16", read_only_scenario, servers=16, seed_offset=5,
        fd="heartbeat", read_leases=True,
    ),
    Scenario(
        "read_circulating_16", read_only_scenario, servers=16, seed_offset=6,
        fd="heartbeat", read_leases=True, grant_leases=False,
    ),
    # The coded-value pair: identical 64 KiB write-only workload,
    # detector and view machinery, differing only in the value backend.
    # Replicated circulates the full value n hops (n * |v| ring bytes
    # per write); coded scatters n-1 fragments of |v|/k and circulates
    # an empty control pre-write (~(n-1)/k * |v|).  At k=2, n=4 the
    # ring bytes/op ratio is ~0.38 — the headline number of the coded
    # backend, gated by test_bench_snapshots.
    Scenario(
        "replicated_large_value", large_write_scenario, servers=4,
        seed_offset=7, fd="heartbeat", view_quorum=True, window_scale=3.0,
        batch_max_messages=1,
    ),
    Scenario(
        "coded_large_value", large_write_scenario, servers=4,
        seed_offset=8, fd="heartbeat", value_coding="coded", coding_k=2,
        window_scale=3.0, batch_max_messages=1,
    ),
    # The elastic-placement pair: identical Zipf(1.1) hot/cold workload
    # over 8 blocks, all packed on ring 0 of an 8-server / 4-ring
    # cluster ("capacity added, nothing moved yet").  The static twin
    # leaves them there — two servers serve ~everything while six idle;
    # the elastic twin attaches the rebalancer, which migrates and
    # splits the hot blocks across the idle rings during warmup.  The
    # simulated ops/s multiple between the two is the headline number
    # of elastic sharding (ROADMAP item 3), pinned by
    # test_bench_snapshots.
    Scenario(
        "skewed_static", skewed_block_scenario, servers=8, seed_offset=9,
        num_blocks=8, rings=((0, 1), (2, 3), (4, 5), (6, 7)), pack=True,
    ),
    Scenario(
        "skewed_elastic", skewed_block_scenario, servers=8, seed_offset=10,
        num_blocks=8, rings=((0, 1), (2, 3), (4, 5), (6, 7)), pack=True,
        elastic=True,
    ),
)


def _windows(quick: bool) -> tuple[float, float]:
    # Mirrors repro.bench.experiments._windows so snapshot numbers are
    # directly comparable to the figure tables.
    return (0.15, 0.3) if quick else (0.3, 1.0)


def _kind_record(stats, window: float) -> dict:
    latency = LatencyStats.from_samples(stats.latencies)
    return {
        "ops": stats.operations,
        "sim_ops_per_s": stats.operations / window,
        "mbps": mbit_per_s(stats.payload_bytes, window),
        "p50_ms": latency.p50 * 1e3 if latency.count else None,
        "p95_ms": latency.p95 * 1e3 if latency.count else None,
        "p99_ms": latency.p99 * 1e3 if latency.count else None,
    }


def run_scenario(
    scenario: Scenario,
    seed: int,
    quick: bool,
    protocol: Optional[ProtocolConfig] = None,
) -> dict:
    """Measure one scenario; returns its JSON-ready record.

    The trace counters are zeroed at the start of the measurement
    window, so the wire accounting (bytes/op, messages/op, batched
    frames) covers exactly the window the throughput numbers do.
    """
    warmup, window = _windows(quick)
    warmup *= scenario.window_scale
    window *= scenario.window_scale
    spec = scenario.spec_factory()
    build_kwargs = {}
    if scenario.read_leases:
        protocol = replace(
            protocol or ProtocolConfig(), view_quorum=True, read_leases=True
        )
        build_kwargs["heartbeat"] = _calm_heartbeat(scenario.grant_leases)
    if scenario.view_quorum:
        protocol = replace(protocol or ProtocolConfig(), view_quorum=True)
    if scenario.value_coding == "coded":
        protocol = replace(
            protocol or ProtocolConfig(),
            view_quorum=True,
            value_coding="coded",
            coding_k=scenario.coding_k,
            coding_n=scenario.servers,
        )
    if scenario.batch_max_messages is not None:
        protocol = replace(
            protocol or ProtocolConfig(),
            batch_max_messages=scenario.batch_max_messages,
        )
    if scenario.fd != "perfect":
        build_kwargs["fd"] = scenario.fd
        build_kwargs.setdefault("heartbeat", _calm_heartbeat())
    if scenario.num_blocks:
        # Rebalance on a tight cadence so the elastic twin converges
        # within the warmup and the measured window sees the *settled*
        # spread placement, not the transient.
        cluster = build_elastic_cluster(
            scenario.servers,
            scenario.num_blocks,
            list(scenario.rings),
            seed=seed + scenario.seed_offset,
            pack=scenario.pack,
            rebalance=scenario.elastic,
            rebalance_interval=0.02,
            topology=scenario.topology,
            protocol=protocol,
            initial_value=b"\xa5" * spec.value_size,
            **build_kwargs,
        )
    else:
        cluster = SimCluster.build(
            num_servers=scenario.servers,
            topology=scenario.topology,
            seed=seed + scenario.seed_offset,
            protocol=protocol,
            initial_value=b"\xa5" * spec.value_size,
            **build_kwargs,
        )
    driver = LoadDriver(cluster, spec, seed=seed + scenario.seed_offset)
    wall_start = time.perf_counter()
    driver.start()
    cluster.run(until=cluster.now + warmup)
    cluster.env.trace.reset_counters()
    driver.begin_measurement()
    cluster.run(until=cluster.now + window)
    driver.end_measurement()
    driver.stop()
    wall_seconds = time.perf_counter() - wall_start

    counters = cluster.env.trace.counters
    wire_bytes = sum(
        amount for name, amount in counters.items() if name.endswith(net_suffix(NET_WIRE_BYTES))
    )
    unicasts = sum(
        amount for name, amount in counters.items() if name.endswith(net_suffix(NET_UNICASTS))
    )
    # Server-to-server traffic alone ("srv" is the dedicated ring net of
    # the dual topology; on the shared net it cannot be separated).  This
    # is where the coded backend's (n-1)/(n*k) stripe saving shows up —
    # total bytes/op includes the client-side value transfer, which no
    # coding scheme can shrink.
    ring_wire_bytes = (
        counters.get(scoped("srv", NET_WIRE_BYTES), 0)
        if scenario.topology == "dual"
        else None
    )
    reads = driver.stats["read"]
    writes = driver.stats["write"]
    ops = reads.operations + writes.operations
    return {
        "name": scenario.name,
        "servers": scenario.servers,
        "topology": scenario.topology,
        "seed": seed + scenario.seed_offset,
        "warmup_s": warmup,
        "window_s": window,
        "read": _kind_record(reads, window),
        "write": _kind_record(writes, window),
        "wall_seconds": round(wall_seconds, 4),
        "wall_ops_per_s": round(ops / wall_seconds, 1) if wall_seconds > 0 else None,
        "wire": {
            "bytes_per_op": round(wire_bytes / ops, 1) if ops else None,
            "ring_bytes_per_op": (
                round(ring_wire_bytes / ops, 1)
                if ops and ring_wire_bytes is not None
                else None
            ),
            "messages_per_op": round(unicasts / ops, 2) if ops else None,
            "ring_messages_per_op": (
                round(counters.get(RING_MESSAGES, 0) / ops, 2) if ops else None
            ),
            "batched_frames": counters.get(RELIABLE_BATCHED_FRAMES, 0),
            "batched_messages": counters.get(RELIABLE_BATCHED_MESSAGES, 0),
            "retransmits": counters.get(RELIABLE_RETRANSMITS, 0),
        },
        "leases": (
            {
                "local_reads": counters.get(LEASE_LOCAL_READS, 0),
                "fallbacks": counters.get(LEASE_FALLBACKS, 0),
            }
            if scenario.read_leases
            else None
        ),
        "coding": (
            {
                "fragment_stores": counters.get(CODING_FRAGMENT_STORES, 0),
                "cache_reads": counters.get(CODING_CACHE_READS, 0),
                "reconstructions": counters.get(CODING_RECONSTRUCTIONS, 0),
            }
            if scenario.value_coding == "coded"
            else None
        ),
        "sharding": (
            {
                "num_blocks": scenario.num_blocks,
                "rings": len(scenario.rings),
                "elastic": scenario.elastic,
                # Cumulative over the whole run (rebalancer tallies and
                # the table version survive the counter reset), so they
                # capture the warmup migrations the window benefits from.
                "placement_version": cluster.placement.version,
                "migrations_completed": (
                    cluster.rebalancer.completed if cluster.rebalancer else 0
                ),
                "migrations_aborted": (
                    cluster.rebalancer.aborted if cluster.rebalancer else 0
                ),
                "splits": (
                    cluster.rebalancer.splits if cluster.rebalancer else 0
                ),
                "redirects": counters.get(SHARD_REDIRECTS, 0),
            }
            if scenario.num_blocks
            else None
        ),
    }


def run_suite(
    tag: str,
    seed: int = 7,
    quick: bool = True,
    batch_max_messages: Optional[int] = None,
) -> dict:
    """Run every scenario and assemble the snapshot document."""
    protocol = (
        None
        if batch_max_messages is None
        else ProtocolConfig(batch_max_messages=batch_max_messages)
    )
    effective = (protocol or ProtocolConfig()).batch_max_messages
    scenarios = [
        run_scenario(scenario, seed, quick, protocol) for scenario in SCENARIOS
    ]
    return {
        "schema": SCHEMA_VERSION,
        "tag": tag,
        "quick": quick,
        "base_seed": seed,
        "batch_max_messages": effective,
        "python": platform.python_version(),
        "scenarios": scenarios,
    }


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def check_regression(
    current: dict, baseline: dict, threshold: float = REGRESSION_THRESHOLD
) -> list[str]:
    """Compare simulated ops/s per scenario and kind; return failures.

    Only scenarios present in both snapshots are compared, and only op
    kinds the baseline actually measured (ops > 0).  Wall-clock numbers
    are never gated — they move with the host machine.  A scenario the
    baseline does not know is announced (``skipped: ...``), never
    silently ignored: an unannounced skip is how a renamed scenario
    slips past the gate ungated.
    """
    failures: list[str] = []
    baseline_by_name = {s["name"]: s for s in baseline.get("scenarios", ())}
    for scenario in current.get("scenarios", ()):
        base = baseline_by_name.get(scenario["name"])
        if base is None:
            print(f"skipped: {scenario['name']} (not in baseline)")
            continue
        for kind in ("read", "write"):
            base_rate = base[kind]["sim_ops_per_s"]
            if not base_rate:
                continue
            rate = scenario[kind]["sim_ops_per_s"]
            ratio = rate / base_rate
            if ratio < 1.0 - threshold:
                failures.append(
                    f"{scenario['name']}/{kind}: {rate:.1f} sim ops/s is "
                    f"{(1.0 - ratio) * 100:.1f}% below baseline {base_rate:.1f} "
                    f"(tolerance {threshold * 100:.0f}%)"
                )
    return failures


def _summarise(snapshot: dict) -> str:
    lines = [
        f"tag={snapshot['tag']} quick={snapshot['quick']} "
        f"batch_max_messages={snapshot['batch_max_messages']} "
        f"base_seed={snapshot['base_seed']}"
    ]
    for s in snapshot["scenarios"]:
        parts = [f"  {s['name']:>14}:"]
        for kind in ("read", "write"):
            if s[kind]["ops"]:
                parts.append(
                    f"{kind} {s[kind]['sim_ops_per_s']:.0f} ops/s "
                    f"({s[kind]['mbps']:.1f} Mbit/s)"
                )
        parts.append(f"wall {s['wall_ops_per_s']:.0f} ops/s")
        if s["wire"]["batched_frames"]:
            parts.append(
                f"batched {s['wire']['batched_messages']}m/"
                f"{s['wire']['batched_frames']}f"
            )
        if s.get("leases"):
            parts.append(
                f"ring/op {s['wire']['ring_messages_per_op']}  "
                f"lease {s['leases']['local_reads']}lo/"
                f"{s['leases']['fallbacks']}fb"
            )
        if s.get("coding"):
            parts.append(
                f"ring B/op {s['wire']['ring_bytes_per_op']}  "
                f"frags {s['coding']['fragment_stores']}"
            )
        if s.get("sharding"):
            sh = s["sharding"]
            parts.append(
                f"mig {sh['migrations_completed']}c/"
                f"{sh['migrations_aborted']}a/{sh['splits']}s "
                f"pv{sh['placement_version']}"
            )
        lines.append("  ".join(parts))
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.runner",
        description="seeded perf snapshots (BENCH_<tag>.json) with a "
                    "regression gate",
    )
    parser.add_argument("--tag", default="local",
                        help="snapshot tag; output file is BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed; each scenario derives its own "
                             "(default 7, the committed snapshots' seed)")
    parser.add_argument("--full", action="store_true",
                        help="full windows (0.3s warmup / 1.0s window) "
                             "instead of the quick CI windows")
    parser.add_argument("--batch", type=int, default=None, metavar="K",
                        help="override batch_max_messages explicitly")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<tag>.json (default: cwd)")
    parser.add_argument("--check-regression", metavar="BASELINE",
                        help="compare against a committed snapshot; exit "
                             "non-zero on >20%% simulated ops/s regression")
    parser.add_argument("--threshold", type=float, default=REGRESSION_THRESHOLD,
                        help="regression tolerance as a fraction "
                             "(default 0.20)")
    args = parser.parse_args(argv)

    if args.batch is not None and args.batch < 1:
        parser.error(f"--batch must be >= 1, got {args.batch}")

    snapshot = run_suite(
        args.tag, seed=args.seed, quick=not args.full, batch_max_messages=args.batch
    )
    print(_summarise(snapshot))

    out_path = Path(args.out) / f"BENCH_{args.tag}.json"
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.check_regression:
        baseline = json.loads(Path(args.check_regression).read_text())
        if baseline.get("quick") != snapshot["quick"]:
            print(f"FAIL: window mismatch — baseline quick="
                  f"{baseline.get('quick')} vs current quick={snapshot['quick']}")
            return 1
        failures = check_regression(snapshot, baseline, args.threshold)
        if failures:
            print("FAIL: simulated throughput regressed:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression gate: ok vs {args.check_regression}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
