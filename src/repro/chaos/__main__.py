"""Command-line chaos harness.

Examples::

    python -m repro.chaos --runs 25 --seed 0
        25 randomized fault schedules against the core ring protocol;
        exits non-zero unless 25/25 are linearizable AND every required
        fault type (crash, restart, partition, drop, delay, duplicate)
        demonstrably fired at least once across the batch.

    python -m repro.chaos --profile partition --runs 25 --seed 0
        The partition-heavy batch: every schedule cuts the cluster under
        the *imperfect* heartbeat detector (epoch-guarded, quorum-
        installed views).  The gate additionally requires in-trace proof
        that at least one run wrongly suspected a live server
        (``fd.wrong_suspicions``) and still checked linearizable.

    python -m repro.chaos --profile scale --runs 10 --seed 0
        Chaos at benchmark scale: the sharded ``BlockStore`` (8+ blocks,
        thousands of operations per run) under the core fault envelope.
        Every run's history is split per block and gated through the
        O(n log n) tagged checker at 100% tag coverage — the value-based
        search would be hopeless on histories this size.

    python -m repro.chaos --profile skew --runs 25 --seed 0
        Elastic sharding under a skewed (hot/cold) workload: blocks live
        on per-ring placements and the rebalancer migrates and splits
        hot blocks *mid-run* while servers of the hot destination ring
        crash and recover.  Every run must complete at least one
        migration; the batch must also exercise the abort path.

    python -m repro.chaos --runs 5 --seed 3 --protocols core,abd,tob
        Smaller batch against several protocols (baselines get the
        gentle, loss-free profile they are expected to survive).

    python -m repro.chaos --smoke
        The fixed-seed CI job: a quick pass over the whole zoo.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Optional

from repro.chaos.runner import FEATURES, TARGETS, ChaosResult, run_schedule, target_for
from repro.chaos.schedule import (
    CODED_K,
    FAULT_KINDS,
    PROFILES,
    ChaosProfile,
    generate_schedule,
)
from repro.sim.counters import (
    RELIABLE_BATCHED_FRAMES,
    RELIABLE_BATCHED_MESSAGES,
    RELIABLE_DUPS_SUPPRESSED,
    RELIABLE_RETRANSMITS,
)

#: Fault types the acceptance gate requires to have demonstrably fired
#: (throttle/pause are reported but not required: they are refinements).
#: ``restart`` is required: every core batch must prove — via the
#: ``process.restarts`` trace counter — that at least one crashed server
#: came back from its durable snapshot and rejoined mid-run.  A profile
#: may override this set (``ChaosProfile.required_kinds``).
REQUIRED_KINDS = ("crash", "restart", "partition", "drop", "delay", "duplicate")


def run_batch(
    protocol: str,
    runs: int,
    seed: int,
    num_servers: int,
    verbose: bool = True,
    profile: Optional[ChaosProfile] = None,
) -> list[ChaosResult]:
    if profile is None:
        profile = TARGETS[protocol].profile
    results = []
    for index in range(runs):
        schedule = generate_schedule(seed, index, num_servers, profile)
        result = run_schedule(schedule, protocol)
        results.append(result)
        if verbose:
            print(f"  run {index:3d}: {result.describe()}")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="randomized fault injection with linearizability gating",
    )
    parser.add_argument("--runs", type=int, default=25,
                        help="schedules per protocol (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; every run derives from (seed, index)")
    parser.add_argument("--servers", type=int, default=4,
                        help="cluster size (default 4)")
    parser.add_argument("--protocols", default="core",
                        help="comma-separated targets, or 'all' "
                             f"(choices: {','.join(TARGETS)})")
    parser.add_argument("--profile", default=None,
                        help="generation profile override for the core "
                             f"protocol (choices: {','.join(PROFILES)}); "
                             "'partition' runs the imperfect heartbeat "
                             "detector with epoch-guarded views; 'lease' "
                             "adds epoch-scoped read leases and clock-skew "
                             "faults on top of the partition envelope; "
                             "'coded' runs the erasure-coded value backend "
                             "(k-of-n striping) under the partition "
                             "envelope and requires in-trace fragment "
                             "repairs; 'scale' runs the sharded block "
                             "store at benchmark scale, gated per block by "
                             "the tagged checker; 'skew' runs the elastic "
                             "block store under a hot/cold workload with "
                             "live block migration, requiring every run to "
                             "complete at least one migration")
    parser.add_argument("--smoke", action="store_true",
                        help="fixed quick pass over the whole zoo (CI)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    if args.servers < 2:
        # Schedules crash at most n-1 servers and cut partitions between
        # two sides: one server can never fire either, so the coverage
        # gate could never pass.
        parser.error(f"--servers must be >= 2, got {args.servers}")
    profile = None
    if args.profile is not None:
        if args.profile not in PROFILES:
            parser.error(f"unknown profile {args.profile!r}; "
                         f"choices: {','.join(PROFILES)}")
        profile = PROFILES[args.profile]
        if profile.value_coding == "coded" and args.servers <= CODED_K:
            parser.error(f"the coded profile needs more servers than "
                         f"coding_k={CODED_K} (a spare share to repair from), "
                         f"got --servers {args.servers}")
        if args.smoke:
            parser.error("--smoke runs fixed profiles; drop --profile")
        tolerant = [name for name, target in TARGETS.items() if target.tolerant]
        if args.protocols not in tolerant:
            parser.error(f"--profile only applies to the {' or '.join(tolerant)} "
                         "protocol")
        named = TARGETS[args.protocols]
        # A one-register target hands a sharded profile to the block
        # store below; the block store has no one-register schedules.
        if named.profile.sharded and not named.accepts(profile):
            shapes = [repr(name) for name, known in PROFILES.items()
                      if named.accepts(known)]
            parser.error(f"the {args.protocols} protocol only runs "
                         f"{' or '.join(shapes)} schedules")
    if args.smoke:
        batches = [("core", 12), ("abd", 2), ("chain", 2), ("tob", 2), ("naive", 2)]
    elif profile is not None:
        # A profile runs on the target of its shape: `--profile scale`
        # or `skew` *is* the sharded block store (skew additionally runs
        # it elastic, with the rebalancer live-migrating blocks mid-run).
        batches = [(target_for(profile), args.runs)]
    else:
        if args.protocols == "all":
            # 'all' means the single-register zoo; the sharded target runs
            # multi-thousand-op schedules and is opted into explicitly
            # (--profile scale or --protocols sharded) so 'all' batches
            # keep their historical cost.
            names = [name for name, target in TARGETS.items()
                     if not target.profile.sharded]
        else:
            names = args.protocols.split(",")
        for name in names:
            if name not in TARGETS:
                parser.error(f"unknown protocol {name!r}; choices: {','.join(TARGETS)}")
        batches = [(name, args.runs) for name in names]

    failures = 0
    anomalies = 0
    totals: Counter[str] = Counter()
    sharded_blocks = 0
    sharded_min_coverage = None
    exercised: set[str] = set()
    #: Coverage accumulated over the profile-gated batches (the core
    #: ring protocol and its sharded block-store variant) — the
    #: baselines' gentle schedules would dilute the gate.
    gated_exercised: set[str] = set()
    for protocol, runs in batches:
        profile_name = (profile or TARGETS[protocol].profile).name
        if not args.quiet:
            print(f"== {protocol}: {runs} randomized {profile_name!r} schedules "
                  f"(seed {args.seed}) ==")
        results = run_batch(protocol, runs, args.seed, args.servers,
                            verbose=not args.quiet, profile=profile)
        passed = sum(1 for result in results if result.ok)
        failures += sum(1 for result in results if not result.ok)
        anomalies += sum(1 for result in results if result.anomaly)
        for result in results:
            totals.update(result.counters)
            exercised |= result.exercised
            if TARGETS[protocol].tolerant:
                gated_exercised |= result.exercised
            if result.tag_coverage is not None:
                sharded_blocks += result.blocks_checked
                sharded_min_coverage = (
                    result.tag_coverage
                    if sharded_min_coverage is None
                    else min(sharded_min_coverage, result.tag_coverage)
                )
        print(f"  {protocol}: {passed}/{len(results)} schedules passed "
              f"the linearizability gate")

    print(f"fault types exercised: "
          f"{', '.join(kind for kind in FAULT_KINDS if kind in exercised) or 'none'}")
    print(f"reliable transport: {totals[RELIABLE_RETRANSMITS]} retransmission(s), "
          f"{totals[RELIABLE_DUPS_SUPPRESSED]} duplicate(s) suppressed")
    if totals[RELIABLE_BATCHED_FRAMES]:
        print(f"ring-frame batching: {totals[RELIABLE_BATCHED_MESSAGES]} message(s) "
              f"shared {totals[RELIABLE_BATCHED_FRAMES]} batch frame(s)")
    if anomalies:
        print(f"expected anomalies observed (naive baseline): {anomalies}")
    if sharded_min_coverage is not None:
        print(f"sharded gate: {sharded_blocks} per-block histories checked "
              f"(tagged checker), minimum tag coverage "
              f"{sharded_min_coverage:.3f}")

    gated = [(protocol, runs) for protocol, runs in batches
             if TARGETS[protocol].tolerant]
    gate_profile = profile or TARGETS[gated[0][0] if gated else "core"].profile
    features = [feature for feature in FEATURES if feature.on(gate_profile)]
    for feature in features:
        print(feature.summary.format(*(totals[name] for name in feature.shown)))

    code = 0
    if failures:
        print(f"FAIL: {failures} run(s) failed the gate "
              "(linearizability violation or stalled workload)")
        code = 1
    gate = gated_exercised if gated_exercised else exercised
    required = gate_profile.required_kinds or REQUIRED_KINDS
    missing = [kind for kind in required if kind not in gate]
    gated_runs = sum(runs for _protocol, runs in gated)
    # Coverage is a statistical property; only gate on it when the gated
    # batch is large enough that every required kind should have fired.
    if missing and gated_runs >= 10:
        print(f"FAIL: fault coverage incomplete, never fired: {', '.join(missing)}")
        code = 1
    for feature in features:
        if gated_runs >= feature.min_runs and not totals[feature.gate]:
            print(f"FAIL: {feature.fail}")
            code = 1
    if code == 0:
        print("chaos: all gates green")
    return code


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
