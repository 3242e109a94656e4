"""Span wrappers around the layers' public functions (traced runs only).

Nothing here is imported by an untraced run.  ``install`` monkeypatches
the entry points of every layer with a wrapper that records one span per
call: layer, name, start, end and the span that caused it.  A layer's
*self time* is its spans' duration minus the part their child spans
cover, so the self times of all layers plus the unattributed remainder
add up to the measured window.

Scheduled simulator actions are wrapped one by one and attributed to the
layer that owns ``action.__module__``; ``sim.events`` self time is
therefore heap and dispatch work only.
"""

from __future__ import annotations

import sys
import time

#: Full spans are kept for this many completed operations per window;
#: after that only the per-(layer, name) aggregates grow.
FULL_SPAN_OPS = 200

#: Layer that owns each ``repro`` module; anything outside ``repro`` (the
#: generators in this directory) is the ``workload`` layer.
MODULE_LAYERS = {
    "repro.core.client": "core.client",
    "repro.core.server": "core.server",
    "repro.core.coding": "core.coding",
    "repro.core.durable": "core.durable",
    "repro.transport.reliable": "transport.reliable",
    "repro.transport.codec": "transport.codec",
    "repro.transport.framing": "transport.framing",
    "repro.sim.events": "sim.events",
    "repro.sim.network": "sim.network",
    "repro.sim.nic": "sim.network",
    "repro.sim.nemesis": "sim.nemesis",
    "repro.fd.heartbeat": "fd.heartbeat",
    "repro.runtime.sim_net": "runtime.sim_net",
}

#: The layers per-layer metrics are reported for, in table order.
LAYERS = (*dict.fromkeys(MODULE_LAYERS.values()), "workload")

# Aggregate slots.
CALLS, SELF_NS, TOTAL_NS, UNITS = range(4)


def layer_of_module(module: str) -> str:
    if not module.startswith("repro."):
        return "workload"
    return MODULE_LAYERS.get(module, module[len("repro."):])


class Tracer:
    """In-memory span recorder; single-threaded by construction (the
    simulator and the asyncio loop both run on one thread, and no wrapped
    function awaits)."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, self_ns, total_ns, units]
        self.aggregates: dict[tuple[str, str], list[int]] = {}
        #: (id, parent id, layer, name, start_ns, end_ns, op) while
        #: ``keep_spans`` holds.
        self.spans: list[tuple] = []
        self.keep_spans = False
        self._ops_seen = 0
        self._next_id = 1
        #: Open spans, innermost last: [child_ns, span id].
        self._stack: list[list[int]] = []
        self._action_spans: dict = {}

    # -- window control -------------------------------------------------

    def begin_window(self) -> None:
        for slot in self.aggregates.values():
            slot[:] = [0, 0, 0, 0]
        self.spans.clear()
        self._ops_seen = 0
        self.keep_spans = True

    def op_done(self) -> None:
        """One operation completed; stop keeping full spans after the
        first :data:`FULL_SPAN_OPS`."""
        self._ops_seen += 1
        if self._ops_seen >= FULL_SPAN_OPS:
            self.keep_spans = False

    def end_window(self) -> dict[tuple[str, str], list[int]]:
        self.keep_spans = False
        return {key: list(slot) for key, slot in self.aggregates.items()}

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, units=None):
        """Return ``fn`` wrapped in a span.  ``units(args, result)``, when
        given, adds a per-call count (bytes encoded, segments batched) to
        the aggregate."""
        slot = self.aggregates.setdefault((layer, name), [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0, 0]
            if self.keep_spans:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    slot[UNITS] += units(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                slot[CALLS] += 1
                slot[SELF_NS] += duration - frame[0]
                slot[TOTAL_NS] += duration
                if stack:
                    stack[-1][0] += duration
                if frame[1]:
                    parent = stack[-1][1] if stack else 0
                    self.spans.append(
                        (frame[1], parent, layer, name, start, end, _op_of(args))
                    )

        traced.__wrapped__ = fn
        return traced

    def wrap_attr(self, layer: str, owner, attr: str, units=None) -> None:
        label = f"{owner.__name__}.{attr}"
        setattr(owner, attr, self.wrap(layer, label, getattr(owner, attr), units))

    def wrap_function(self, layer: str, module, attr: str, units=None) -> None:
        """Wrap a module-level function and rebind every ``repro`` module
        that imported it by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(layer, f"{module.__name__[6:]}.{attr}", original, units)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def wrap_public_methods(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and callable(value) and not isinstance(
                value, (property, staticmethod, classmethod)
            ):
                self.wrap_attr(layer, cls, attr)

    # -- scheduled actions ----------------------------------------------

    def wrap_scheduler(self, scheduler_cls) -> None:
        """Span ``run``/``step``/``schedule_at`` as ``sim.events`` and
        every scheduled action as the layer owning its module."""
        for attr in ("run", "step"):
            self.wrap_attr("sim.events", scheduler_cls, attr)
        traced_action = self._traced_action
        inner = scheduler_cls.schedule_at

        def schedule_at(scheduler, when, action, *args):
            return inner(scheduler, when, traced_action(action), action, *args)

        scheduler_cls.schedule_at = self.wrap(
            "sim.events", "EventScheduler.schedule_at", schedule_at
        )

    def _traced_action(self, action):
        """The span-wrapped trampoline for a scheduled action, cached per
        code object so closures created per call share one entry."""
        func = getattr(action, "__func__", action)
        key = getattr(func, "__code__", None) or type(action)
        traced = self._action_spans.get(key)
        if traced is None:
            layer = layer_of_module(getattr(func, "__module__", None) or "")
            name = getattr(func, "__qualname__", type(action).__name__)
            traced = self._action_spans[key] = self.wrap(layer, name, _call)
        return traced


def _call(action, *args):
    return action(*args)


def _op_of(args) -> str | None:
    """The ``OpId`` an argument carries, if any, as ``client:seq``."""
    for arg in args:
        op = getattr(arg, "op", None)
        if op is not None and hasattr(op, "seq"):
            return f"{op.client}:{op.seq}"
    return None


def install(tracer: Tracer, generator) -> None:
    """Patch every layer's entry points.  ``generator`` is the workload
    object of this directory whose callbacks form the ``workload`` layer."""
    from repro.core import client, coding, durable, server
    from repro.fd import heartbeat
    from repro.runtime import sim_net
    from repro.sim import events, nemesis, network
    from repro.transport import codec, framing, reliable

    for attr in ("start_write", "start_read", "on_reply", "on_timeout"):
        tracer.wrap_attr("core.client", client.ClientProtocol, attr)
    for attr in (
        "on_client_message", "on_ring_message", "next_ring_batch",
        "next_ring_message", "drain_replies",
    ):
        tracer.wrap_attr("core.server", server.ServerProtocol, attr)
    tracer.wrap_function("core.coding", coding, "encode")
    tracer.wrap_function("core.coding", coding, "decode")
    for store in (durable.MemorySnapshotStore, durable.FileSnapshotStore):
        tracer.wrap_attr("core.durable", store, "save")

    session = reliable.ReliableSession
    tracer.wrap_attr("transport.reliable", session, "send")
    tracer.wrap_attr("transport.reliable", session, "on_segment")
    tracer.wrap_attr("transport.reliable", session, "make_ack")
    # units: segments retransmitted / segments per batch frame.
    tracer.wrap_attr(
        "transport.reliable", session, "poll", units=lambda a, r: len(r)
    )
    tracer.wrap_function("transport.reliable", reliable, "encode_segment")
    tracer.wrap_function("transport.reliable", reliable, "decode_frame")
    tracer.wrap_function(
        "transport.reliable", reliable, "encode_batch",
        units=lambda a, r: len(a[0]),
    )
    # units: encoded bytes.
    tracer.wrap_function(
        "transport.codec", codec, "encode_message", units=lambda a, r: len(r)
    )
    tracer.wrap_function(
        "transport.codec", codec, "decode_message", units=lambda a, r: len(a[0])
    )
    tracer.wrap_function("transport.framing", framing, "frame")
    tracer.wrap_attr("transport.framing", framing.FrameDecoder, "feed")

    tracer.wrap_scheduler(events.EventScheduler)
    tracer.wrap_attr("sim.network", network.Network, "unicast")
    tracer.wrap_attr("sim.network", network.Network, "multicast")
    tracer.wrap_attr("sim.nemesis", nemesis.Nemesis, "route")
    tracer.wrap_public_methods("fd.heartbeat", heartbeat.HeartbeatTracker)
    tracer.wrap_public_methods("fd.heartbeat", heartbeat.ReadLease)

    runtime = "runtime.sim_net"
    tracer.wrap_attr(runtime, sim_net.SimCluster, "transmit")
    tracer.wrap_attr(runtime, sim_net.SimCluster, "after_protocol_step")
    tracer.wrap_attr(runtime, sim_net.OutLoop, "pump")
    tracer.wrap_attr(runtime, sim_net._ReliableLinkLayer, "deliver_stamped")
    for attr in ("receive_ring", "receive_client"):
        tracer.wrap_attr(runtime, sim_net.ServerHost, attr)
    for attr in ("read", "write", "on_reply_delivered"):
        tracer.wrap_attr(runtime, sim_net.ClientHost, attr)

    for attr in generator.TRACED:
        tracer.wrap_attr("workload", type(generator), attr)


def layer_totals(aggregates: dict) -> dict[str, list[int]]:
    """Sum the per-(layer, name) aggregates per layer."""
    totals = {layer: [0, 0, 0, 0] for layer in LAYERS}
    for (layer, _name), slot in aggregates.items():
        into = totals.setdefault(layer, [0, 0, 0, 0])
        for index, amount in enumerate(slot):
            into[index] += amount
    return totals
