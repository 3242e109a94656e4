"""Property-based tests for the event scheduler and wire model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventScheduler
from repro.sim.wire import WireModel


@given(st.lists(st.floats(0, 1e6, allow_nan=False), max_size=60))
@settings(max_examples=200)
def test_scheduler_fires_in_nondecreasing_time_order(delays):
    sched = EventScheduler()
    fired = []
    for delay in delays:
        sched.schedule(delay, lambda d=delay: fired.append(sched.now))
    sched.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.tuples(st.floats(0, 100), st.booleans()), max_size=40),
)
@settings(max_examples=200)
def test_cancelled_events_never_fire(entries):
    sched = EventScheduler()
    fired = []
    handles = []
    for delay, cancel in entries:
        handle = sched.schedule(delay, lambda i=len(handles): fired.append(i))
        handles.append((handle, cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sched.run()
    expected = [i for i, (_h, cancel) in enumerate(handles) if not cancel]
    assert sorted(fired) == expected


@given(st.integers(0, 10**7))
@settings(max_examples=300)
def test_wire_bytes_monotone_and_bounded(payload):
    wire = WireModel()
    cost = wire.wire_bytes(payload)
    assert cost >= payload
    assert cost >= wire.min_frame
    # Overhead is at most header + one segment's overhead per MSS chunk
    # of the *framed* payload (header included in segmentation).
    framed = payload + wire.app_header
    max_segments = framed // wire.mss + 1
    assert cost <= max(wire.min_frame, framed + max_segments * wire.segment_overhead)


@given(st.integers(0, 10**6), st.integers(1, 10**6))
@settings(max_examples=200)
def test_wire_bytes_superadditive_in_payload(a, b):
    """Sending one big message never costs more than two smaller ones
    (per-message framing amortises)."""
    wire = WireModel()
    assert wire.wire_bytes(a + b) <= wire.wire_bytes(a) + wire.wire_bytes(b)


# -- firing order under schedule / cancel / schedule-from-callback -------

# Delays from a small set, 0 included, so that many events tie on time
# and only the sequence number can order them.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75])
_behaviours = st.lists(
    st.tuples(
        st.lists(_delays, max_size=3),  # children scheduled when fired
        st.lists(st.integers(0, 200), max_size=3),  # handles cancelled when fired
    ),
    min_size=1,
    max_size=12,
)
_LIMIT = 80  # events created per example, roots included


def _reference_run(roots, behaviours):
    """What must fire, by the definition: repeatedly the smallest
    ``(time, seq)`` among events neither fired nor cancelled."""
    waiting, cancelled, fired = [], set(), []
    created = 0

    def create(time):
        nonlocal created
        if created < _LIMIT:
            waiting.append((time, created))
            created += 1

    for delay in roots:
        create(0.0 + delay)
    while True:
        live = [event for event in waiting if event[1] not in cancelled]
        if not live:
            return fired
        event = min(live)
        waiting.remove(event)
        fired.append(event)
        now, seq = event
        children, cancels = behaviours[seq % len(behaviours)]
        for delay in children:
            create(now + delay)
        for pick in cancels:
            cancelled.add(pick % created)


def _drive(sched, mode):
    if mode == "run":
        sched.run()
    elif mode == "step":
        while sched.step():
            pass
    elif mode == "windows":
        for k in range(1, 6):
            sched.run(until=0.6 * k)
            assert sched.now == 0.6 * k
        sched.run()
    else:
        while sched.pending:
            sched.run(max_events=3)


@given(st.lists(_delays, min_size=1, max_size=10), _behaviours,
       st.sampled_from(["run", "step", "windows", "max_events"]))
@settings(max_examples=300)
def test_fires_exactly_the_sorted_uncancelled_events(roots, behaviours, mode):
    sched = EventScheduler()
    handles, fired = [], []

    def create(delay):
        if len(handles) < _LIMIT:
            handles.append(sched.schedule(delay, fire, len(handles)))

    def fire(index):
        handle = handles[index]
        assert handle.cancelled, "a firing event is already consumed"
        fired.append((sched.now, handle.seq))
        children, cancels = behaviours[index % len(behaviours)]
        for delay in children:
            create(delay)
        for pick in cancels:
            handles[pick % len(handles)].cancel()

    for delay in roots:
        create(delay)
    _drive(sched, mode)

    assert fired == _reference_run(roots, behaviours)
    assert fired == sorted(fired), "(time, seq) order, ties broken by seq"
    assert sched.events_fired == len(fired)
    assert [h.seq for h in handles] == list(range(len(handles)))
    assert all(h.cancelled for h in handles)
