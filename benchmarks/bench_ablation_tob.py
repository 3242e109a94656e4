"""ABL3 — the modular (total-order-broadcast) approach caps at 1 op/round.

Paper, Section 4.2: "Algorithms based on underlying total order
broadcast primitives have the same throughput as the underlying atomic
broadcast algorithm for both read and write operations.  The highest
throughput we know of for such algorithms is 1."  Ordering the *reads*
is what kills scalability; the paper's algorithm keeps reads local.

A companion wire-model measurement (`python -m repro.bench
abl3-tob-wire`) shows that with byte-based costs, small read tokens let
TOB reads scale further than the message-count model suggests — an honest caveat
to the paper's round-model argument.
"""

from conftest import column, run_experiment

from repro.bench.experiments import run_ablation_tob


def test_ablation_tob_round_model(benchmark):
    _headers, rows = run_experiment(benchmark, run_ablation_tob, servers=(2, 4, 8))
    ns = column(rows, 0)
    tob = column(rows, 1)
    ours = column(rows, 2)

    # TOB total throughput pinned at ~1/round for every n.
    assert all(t <= 1.05 for t in tob), tob
    # Ours grows as ~n + 1 (n reads + 1 write per round).
    for n, total in zip(ns, ours):
        assert total > n - 0.5, f"expected ~{n + 1} ops/round at n={n}, got {total}"
    assert ours[-1] / tob[-1] > 6.0, "the gap must widen with n"
