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

``--check-regression`` exits non-zero if any deterministic field of the
run and the baseline differ — every field but the wall-clock ones,
``tag`` and ``python``, over every scenario either of them has — so a
committed snapshot cannot go stale and no simulated number can move
unnoticed (wall-clock numbers are machine-dependent and are reported,
not gated).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.analysis.stats import LatencyStats
from repro.bench.harness import measure_cluster, windows
from repro.core.config import ProtocolConfig
from repro.fd.heartbeat import HeartbeatConfig
from repro.runtime.sharded import build_elastic_cluster
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
from repro.workload.scenarios import (
    contention_scenario,
    read_only_scenario,
    skewed_block_scenario,
    write_only_scenario,
)

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Per-scenario fields that move with the host, not with the code.
WALL_FIELDS = ("wall_seconds", "wall_ops_per_s")
#: Top-level fields that name the run rather than measure the code.
RUN_FIELDS = ("tag", "python")

#: Value size of the coded-vs-replicated pair: large enough that the
#: value dominates the frame (headers are noise at 64 KiB), so the ring
#: bytes/op ratio between the two backends approaches the analytical
#: (n-1)/(n*k) stripe bound.
LARGE_VALUE_SIZE = 64 * 1024


def large_write_scenario():
    """64 KiB write-only workload for the coded-vs-replicated pair."""
    return write_only_scenario(value_size=LARGE_VALUE_SIZE,
                               writer_concurrency=8)


#: A calmer beacon cadence than the chaos default: the bench cluster is
#: failure-free, so the detector only needs to renew leases, and n^2
#: beacon traffic would otherwise dominate the event count the
#: wall-clock numbers measure.
CALM_HEARTBEAT = HeartbeatConfig(
    period=0.05,
    timeout=0.3,
    check_interval=0.025,
    propose_grace=0.08,
    lease_duration=0.2,
    clock_drift_bound=0.02,
)


@dataclass(frozen=True)
class Scenario:
    """One fixed measurement point of the snapshot suite: the record
    shape of perfbench's ``SimWorkload`` (a protocol configuration plus
    an optional heartbeat detector) with the runner's window and
    placement knobs."""

    name: str
    spec_factory: Callable
    servers: int
    topology: str = "dual"
    protocol: ProtocolConfig = ProtocolConfig()
    #: The heartbeat detector's timing, or ``None`` for the perfect
    #: detector.  Read leases and the coded backend need it.
    heartbeat: Optional[HeartbeatConfig] = None
    #: Stretch warmup and window by this factor.  The 64 KiB pair needs
    #: it: at quick windows a replicated write pipeline completes only
    #: ~64 ops per window while holding 64 in flight, so ramp-up
    #: boundary effects distort bytes/op by ~25%; a 3x window makes the
    #: wire accounting steady-state.
    window_scale: float = 1.0
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


#: The 64 KiB pair pins the batch depth to 1: batching four
#: value-bearing pre-writes into a ~256 KiB frame adds store-and-forward
#: latency at every hop, which is a property of message-count batching
#: at huge value sizes, not of the value backend this pair measures.
#: Real stacks cap batch *bytes*; until the transport does, large-value
#: frames travel alone.
_UNBATCHED = ProtocolConfig(batch_max_messages=1)

#: The snapshot suite; a scenario's seed is the base seed plus its
#: position here.  ``fig3b_write_4`` is the headline workload of the
#: batching work (the paper's write-throughput regime: 2 writer
#: machines per server, 4 KiB values, concurrency 16).
SCENARIOS = (
    Scenario("fig3b_write_4", write_only_scenario, servers=4),
    Scenario("fig3b_write_8", write_only_scenario, servers=8),
    Scenario("fig3a_read_4", read_only_scenario, servers=4),
    Scenario("fig3c_mixed_4", contention_scenario, servers=4),
    Scenario("fig3d_shared_4", contention_scenario, servers=4, topology="shared"),
    # The leased-read pair: identical read-heavy workload and detector,
    # differing only in whether leases are granted.  Leased steady state
    # serves every read locally (0 ring messages/op); the no-grant
    # baseline fences every read around the ring — the messages/op
    # collapse and the wall-clock read-throughput multiple between the
    # two is the headline number of the leased read path.
    Scenario(
        "read_leased_16", read_only_scenario, servers=16,
        protocol=ProtocolConfig(read_leases=True), heartbeat=CALM_HEARTBEAT,
    ),
    Scenario(
        "read_circulating_16", read_only_scenario, servers=16,
        protocol=ProtocolConfig(read_leases=True),
        heartbeat=replace(CALM_HEARTBEAT, grant_leases=False),
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
        protocol=_UNBATCHED, heartbeat=CALM_HEARTBEAT, window_scale=3.0,
    ),
    Scenario(
        "coded_large_value", large_write_scenario, servers=4,
        protocol=replace(
            _UNBATCHED, value_coding="coded", coding_k=2, coding_n=4
        ),
        heartbeat=CALM_HEARTBEAT, window_scale=3.0,
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
        "skewed_static", skewed_block_scenario, servers=8,
        num_blocks=8, rings=((0, 1), (2, 3), (4, 5), (6, 7)), pack=True,
    ),
    Scenario(
        "skewed_elastic", skewed_block_scenario, servers=8,
        num_blocks=8, rings=((0, 1), (2, 3), (4, 5), (6, 7)), pack=True,
        elastic=True,
    ),
)


def _kind_record(ops: int, mbps: float, latency: LatencyStats, window: float) -> dict:
    return {
        "ops": ops,
        "sim_ops_per_s": ops / window,
        "mbps": mbps,
        "p50_ms": latency.p50 * 1e3 if latency.count else None,
        "p95_ms": latency.p95 * 1e3 if latency.count else None,
        "p99_ms": latency.p99 * 1e3 if latency.count else None,
    }


def run_scenario(scenario: Scenario, seed: int, quick: bool) -> dict:
    """Measure one scenario with cluster and driver seed ``seed``;
    returns its JSON-ready record.  The wire accounting (bytes/op,
    messages/op, batched frames) covers exactly the measured window."""
    warmup, window = (w * scenario.window_scale for w in windows(quick))
    spec = scenario.spec_factory()
    build_kwargs = dict(
        topology=scenario.topology,
        seed=seed,
        protocol=scenario.protocol,
        initial_value=b"\xa5" * spec.value_size,
    )
    if scenario.heartbeat is not None:
        build_kwargs.update(fd="heartbeat", heartbeat=scenario.heartbeat)
    if scenario.num_blocks:
        # Rebalance on a tight cadence so the elastic twin converges
        # within the warmup and the measured window sees the *settled*
        # spread placement, not the transient.
        cluster = build_elastic_cluster(
            scenario.servers,
            scenario.num_blocks,
            list(scenario.rings),
            pack=scenario.pack,
            rebalance=scenario.elastic,
            rebalance_interval=0.02,
            **build_kwargs,
        )
    else:
        cluster = SimCluster.build(scenario.servers, **build_kwargs)
    point = measure_cluster(cluster, spec, warmup, window, seed=seed)

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
    ops = point.read_ops + point.write_ops
    wall_seconds = point.wall_seconds
    return {
        "name": scenario.name,
        "servers": scenario.servers,
        "topology": scenario.topology,
        "seed": seed,
        "warmup_s": warmup,
        "window_s": window,
        "read": _kind_record(point.read_ops, point.read_mbps, point.read_latency, window),
        "write": _kind_record(point.write_ops, point.write_mbps, point.write_latency, window),
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
            if scenario.protocol.read_leases
            else None
        ),
        "coding": (
            {
                "fragment_stores": counters.get(CODING_FRAGMENT_STORES, 0),
                "cache_reads": counters.get(CODING_CACHE_READS, 0),
                "reconstructions": counters.get(CODING_RECONSTRUCTIONS, 0),
            }
            if scenario.protocol.value_coding == "coded"
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


def run_suite(tag: str, seed: int = 7, quick: bool = True) -> dict:
    """Run every scenario and assemble the snapshot document."""
    return {
        "schema": SCHEMA_VERSION,
        "tag": tag,
        "quick": quick,
        "base_seed": seed,
        "batch_max_messages": ProtocolConfig().batch_max_messages,
        "python": platform.python_version(),
        "scenarios": [
            run_scenario(scenario, seed + offset, quick)
            for offset, scenario in enumerate(SCENARIOS)
        ],
    }


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


def _flatten(record: dict, prefix: str = "") -> dict:
    """``{"write": {"ops": 848}}`` as ``{"write.ops": 848}``."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def check_drift(current: dict, baseline: dict) -> list[str]:
    """Every deterministic field on which ``current`` and ``baseline``
    differ, as ``"<scenario>: <field> <baseline> -> <current>"``.

    Simulated numbers repeat exactly per seed, so any difference means
    the code changed what it measures and the baseline must be
    regenerated with it.  Wall-clock fields (:data:`WALL_FIELDS`) and
    the run's own name (:data:`RUN_FIELDS`) are not compared; a
    scenario only one side has is a drift.
    """
    drifts: list[str] = []
    absent = object()

    def compare(where: str, theirs: dict, ours: dict, skipped) -> None:
        for field in sorted(set(theirs) | set(ours)):
            was, now = theirs.get(field, absent), ours.get(field, absent)
            if field not in skipped and was != now:
                shown = ["(absent)" if v is absent else repr(v) for v in (was, now)]
                drifts.append(f"{where}: {field} {shown[0]} -> {shown[1]}")

    top = {key: value for key, value in baseline.items() if key != "scenarios"}
    ours_top = {key: value for key, value in current.items() if key != "scenarios"}
    compare("snapshot", top, ours_top, RUN_FIELDS)
    theirs = {s["name"]: s for s in baseline.get("scenarios", ())}
    ours = {s["name"]: s for s in current.get("scenarios", ())}
    for name in [*theirs, *(name for name in ours if name not in theirs)]:
        if name not in ours:
            drifts.append(f"{name}: not in this run")
        elif name not in theirs:
            drifts.append(f"{name}: not in the baseline")
        else:
            compare(name, _flatten(theirs[name]), _flatten(ours[name]), WALL_FIELDS)
    return drifts


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
                    "drift gate",
    )
    parser.add_argument("--tag", default="local",
                        help="snapshot tag; output file is BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed; each scenario derives its own "
                             "(default 7, the committed snapshots' seed)")
    parser.add_argument("--full", action="store_true",
                        help="full windows (0.3s warmup / 1.0s window) "
                             "instead of the quick CI windows")
    parser.add_argument("--out", default=".",
                        help="directory for BENCH_<tag>.json (default: cwd)")
    parser.add_argument("--check-regression", metavar="BASELINE",
                        help="compare against a committed snapshot; exit "
                             "non-zero on any drift of a deterministic field")
    args = parser.parse_args(argv)

    snapshot = run_suite(args.tag, seed=args.seed, quick=not args.full)
    print(_summarise(snapshot))

    out_path = Path(args.out) / f"BENCH_{args.tag}.json"
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out_path}")

    if args.check_regression:
        baseline = json.loads(Path(args.check_regression).read_text())
        drifts = check_drift(snapshot, baseline)
        if drifts:
            print(f"FAIL: {len(drifts)} deterministic field(s) differ from "
                  f"{args.check_regression}; regenerate it if the change "
                  "is intended:")
            for drift in drifts:
                print(f"  {drift}")
            return 1
        print(f"drift gate: ok vs {args.check_regression}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
