"""One workload in this (fresh) process; prints one JSON document.

``run.py`` starts this file once per measurement.  Order of work: the
host calibration kernel, then the set-up clock starts (before ``import
repro``), cluster and clients are built and warmed up, the windows are
measured, open operations drain, and the recorded history is checked for
atomicity.
"""

from __future__ import annotations

import argparse
import asyncio
import heapq
import json
import resource
import sys
import time
from pathlib import Path


class HostCalibration:
    """Speed of this host right now, by a fixed pure-Python kernel.

    The kernel does what the simulator does: heap pushes and pops, small
    allocations, and scattered reads and writes over a table of small
    lists too big for the cache.  The host's speed drifts by 20 % over
    minutes, so every real-clock result is converted into seconds of the
    reference box by :attr:`scale`.  The reading is the *fastest* sample
    of the process, as the window rates are those of the fastest windows:
    both say what the host does when nothing disturbs it.
    """

    #: What the kernel reads on the reference box when it is quiet.
    REFERENCE_MS = 15.0

    def __init__(self) -> None:
        self._cells = [[i, None] for i in range(50_000)]
        self.best_ms = float("inf")

    def sample(self, repeats: int = 1) -> None:
        cells = self._cells
        for _ in range(repeats):
            start = time.perf_counter()
            heap: list = []
            index = 1
            for i in range(20_000):
                index = (index * 1103515245 + 12345) % 50_000
                cell = cells[index]
                cell[0] += 1
                cell[1] = (i, index)
                heapq.heappush(heap, (index, i, cell))
                if len(heap) > 64:
                    heapq.heappop(heap)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            self.best_ms = min(self.best_ms, elapsed_ms)

    @property
    def scale(self) -> float:
        """Real seconds of this host -> seconds of the reference box."""
        return self.REFERENCE_MS / self.best_ms


#: ``--smoke`` shrinks the warm-up by this factor (tests only).
SMOKE_WARMUP_SCALE = 0.1
#: Traced runs: the reference window and the traced window each do this
#: share of the work ``--seconds`` stands for.
TRACE_WINDOW_SHARE = 0.25


def _setup_only(setup_s: float) -> dict:
    HOST.sample(7)
    return {
        "setup_s": setup_s * HOST.scale, "setup_raw_s": setup_s,
        "calib_ms": HOST.best_ms,
    }


def _run_sim(workload: wl.SimWorkload, args) -> dict:
    load = wl.SimLoad(workload, args.seed)
    load.start()
    load.cluster.run(until=workload.warmup * (SMOKE_WARMUP_SCALE if args.smoke else 1))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return _setup_only(setup_s)
    sim_seconds = args.seconds * workload.sim_s_per_wall_s
    load.rec.measuring_since = load.cluster.now
    traced = None
    if args.trace:
        load.run_window(sim_seconds * TRACE_WINDOW_SHARE)
        traced = _begin_trace(load)
        traced["window"] = load.run_window(sim_seconds * TRACE_WINDOW_SHARE)
        _end_trace(load, traced)
    else:
        for index in range(wl.WINDOWS):
            load.run_window(sim_seconds / wl.WINDOWS)
            if index % 4 == 3:
                HOST.sample()
    HOST.sample(7)
    load.drain()
    return _document(load, args, setup_s, traced)


async def _run_tcp(workload: wl.TcpWorkload, args) -> dict:
    load = wl.TcpLoad(workload, args.seed)
    await load.start()
    await load.warm_up(workload.warmup_ops * (SMOKE_WARMUP_SCALE if args.smoke else 1))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        document = _setup_only(setup_s)
        await load.drain()
        return document
    load.rec.measuring_since = time.perf_counter()
    traced = None
    if args.trace:
        await load.run_window(args.seconds * TRACE_WINDOW_SHARE)
        traced = _begin_trace(load)
        traced["window"] = await load.run_window(args.seconds * TRACE_WINDOW_SHARE)
        _end_trace(load, traced)
    else:
        for _ in range(wl.WINDOWS):
            await load.run_window(args.seconds / wl.WINDOWS)
    # No samples between the windows: they would stall the loop the
    # clients and servers share, and pausing the clients for them puts the
    # clients in step, which is another workload (writes collide).
    await load.drain()
    HOST.sample(7)
    return _document(load, args, setup_s, traced)


# ----------------------------------------------------------------------
# Traced window
# ----------------------------------------------------------------------


def _begin_trace(load) -> dict:
    """Called after one untraced reference window: install the spans."""
    import tracing

    rec = load.rec
    traced = {"reference": rec.windows[-1], "tracer": tracing.Tracer()}
    tracing.install(traced["tracer"], load)
    rec.tracer = traced["tracer"]
    traced["before"] = load.counters()
    traced["tracer"].begin_window()
    return traced


def _end_trace(load, traced: dict) -> None:
    traced["aggregates"] = traced["tracer"].end_window()
    traced["after"] = load.counters()
    load.rec.tracer = None


def _per_layer(load, traced: dict, check_s: float) -> dict[str, float]:
    import tracing

    rec = load.rec
    window: wl.Window = traced["window"]
    reference: wl.Window = traced["reference"]
    ops = max(window.ops, 1)
    tcp = load.REAL_CLOCK
    # Seconds the process worked: wall time on the simulator (one thread,
    # never idle), CPU time over TCP (the loop sleeps in the selector).
    window_ns = (window.cpu_s if tcp else window.wall_s) * 1e9
    totals = tracing.layer_totals(traced["aggregates"])
    delta = {
        key: traced["after"][key] - traced["before"][key] for key in traced["after"]
    }
    aggregates = traced["aggregates"]

    def span(layer: str, name: str, slot: int) -> int:
        return aggregates.get((layer, name), (0, 0, 0, 0))[slot]

    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        calls, self_ns, _total, _units = totals[layer]
        metrics[f"{layer}.calls_per_op"] = calls / ops
        metrics[f"{layer}.self_us_per_op"] = self_ns / 1e3 / ops
        metrics[f"{layer}.cpu_share"] = self_ns / window_ns
    attributed_ns = sum(slot[tracing.SELF_NS] for slot in totals.values())
    residual_ns = window_ns - attributed_ns

    metrics["core.client.retries_per_op"] = delta["client_retries"] / ops
    encodes = span("core.coding", "core.coding.encode", tracing.CALLS)
    decodes = span("core.coding", "core.coding.decode", tracing.CALLS)
    metrics["core.coding.encodes_per_op"] = encodes / ops
    metrics["core.coding.decodes_per_op"] = decodes / ops
    value_reads = delta["cache_reads"] + delta["reconstructions"]
    metrics["core.coding.cache_hit_share"] = (
        delta["cache_reads"] / value_reads if value_reads else 0.0
    )

    if tcp:
        retransmits = span("transport.reliable", "ReliableSession.poll", tracing.UNITS)
        frames = span(
            "transport.reliable", "transport.reliable.encode_batch", tracing.CALLS
        )
        batched = span(
            "transport.reliable", "transport.reliable.encode_batch", tracing.UNITS
        )
    else:
        retransmits = delta["retransmits"]
        frames = delta["batched_frames"]
        batched = delta["batched_messages"]
    metrics["transport.reliable.retransmits_per_op"] = retransmits / ops
    metrics["transport.reliable.msgs_per_batched_frame"] = (
        batched / frames if frames else 0.0
    )
    metrics["transport.codec.bytes_per_op"] = (
        span("transport.codec", "transport.codec.encode_message", tracing.UNITS) / ops
    )

    events = delta.get("events", 0)
    metrics["sim.events.events_per_op"] = events / ops
    metrics["sim.events.self_us_per_event"] = (
        totals["sim.events"][tracing.SELF_NS] / 1e3 / events if events else 0.0
    )
    metrics["sim.network.wire_bytes_per_op"] = delta.get("wire_bytes", 0) / ops
    metrics["sim.network.ring_bytes_per_op"] = delta.get("ring_bytes", 0) / ops
    metrics["sim.network.messages_per_op"] = delta.get("messages", 0) / ops
    metrics["sim.network.ring_messages_per_op"] = delta.get("ring_messages", 0) / ops
    beacons = span("fd.heartbeat", "HeartbeatTracker.heard_from", tracing.CALLS)
    metrics["fd.heartbeat.beacons_per_sim_s"] = (
        0.0 if tcp else beacons / window.service_s
    )

    metrics["runtime.asyncio_net.residual_us_per_op"] = (
        residual_ns / 1e3 / ops if tcp else 0.0
    )
    metrics["runtime.asyncio_net.loop_cpu_share"] = (
        window.cpu_s / window.wall_s if tcp else 0.0
    )
    for kind in ("write", "read"):
        metrics[f"runtime.asyncio_net.{kind}_p99_ms"] = (
            wl.percentiles_ms(reference.latencies[kind])["p99_ms"] if tcp else 0.0
        )

    late = wl.percentiles_ms(rec.lateness)
    metrics["workload.late_p99_ms"] = late["p99_ms"]
    metrics["workload.backlog_max"] = rec.backlog_max
    metrics["analysis.linearizability.check_s"] = check_s
    metrics["analysis.linearizability.ops_checked"] = len(rec.history)
    metrics["host.calib_ms"] = HOST.best_ms
    metrics["trace.overhead_share"] = 1.0 - (
        (window.ops / window.wall_s) / (reference.ops / reference.wall_s)
    )
    metrics["trace.unattributed_share"] = residual_ns / window_ns
    metrics["failed_op_share"] = (rec.attempted - rec.completed_ok) / max(
        rec.attempted, 1
    )
    return metrics


# ----------------------------------------------------------------------
# Result document
# ----------------------------------------------------------------------


def _document(load, args, setup_s: float, traced: dict | None) -> dict:
    rec = load.rec
    scale = HOST.scale
    started = time.perf_counter()
    ok, detail = load.check()
    check_s = time.perf_counter() - started
    if rec.bad_lengths:
        ok, detail = False, f"{rec.bad_lengths} read(s) returned a wrong length"

    windows = rec.windows
    ops = sum(window.ops for window in windows)
    real_clock = load.REAL_CLOCK
    latency = {
        kind: wl.latency_ms(windows, kind, real_clock) for kind in ("read", "write")
    }
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calib_ms": HOST.best_ms,
        "setup_raw_s": setup_s,
        "windows": [
            {
                "service_s": w.service_s, "wall_s": w.wall_s, "cpu_s": w.cpu_s,
                "read": wl.percentiles_ms(w.latencies["read"]),
                "write": wl.percentiles_ms(w.latencies["write"]),
            }
            for w in windows
        ],
        "latency": latency,
        "attempted": rec.attempted,
        "failed": rec.attempted - rec.completed_ok,
        "check": {
            "ok": ok, "detail": detail, "seconds": check_s,
            "ops_checked": len(rec.history),
        },
    }
    if traced is None:
        # Real seconds are converted to seconds of the reference box.  The
        # service clock is the real clock only over TCP.
        wall_rate = wl.fast_rate(windows) / scale
        clock = scale if real_clock else 1.0
        document["end_to_end"] = {
            "setup_s": setup_s * scale,
            "sim_ops_per_s": (
                wall_rate if real_clock else ops / sum(w.service_s for w in windows)
            ),
            "wall_ops_per_s": wall_rate,
            "write_p50_ms": latency["write"]["p50_ms"] * clock,
            "write_p99_ms": latency["write"]["p99_ms"] * clock,
            "read_p50_ms": latency["read"]["p50_ms"] * clock,
            "read_p99_ms": latency["read"]["p99_ms"] * clock,
            # Last: includes the history and the checker's working set.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        document["per_layer"] = _per_layer(load, traced, check_s)
        _write_trace(args, traced)
    return document


def _write_trace(args, traced: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "aggregate_fields": ["calls", "self_ns", "total_ns", "units"],
        "aggregates": {
            f"{layer}:{name}": slot
            for (layer, name), slot in sorted(traced["aggregates"].items())
            if slot[0]
        },
        "span_fields": ["id", "parent", "layer", "name", "start_ns", "end_ns", "op"],
        "spans": traced["tracer"].spans,
    }
    (out / f"trace_{args.workload}.json").write_text(json.dumps(trace))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = wl.WORKLOADS[args.workload]
    if isinstance(workload, wl.SimWorkload):
        document = _run_sim(workload, args)
    else:
        document = asyncio.run(_run_tcp(workload, args))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    HOST = HostCalibration()
    HOST.sample(7)
    #: Set-up time runs from here, before ``import repro``, to the start of
    #: the first window.
    T0 = time.perf_counter()
    import workloads as wl

    sys.exit(main())
