"""Property: a receive port booked at send time is the staged FIFO port.

``RxPort`` replaces the old receive path — an arrival event
``propagation_delay`` after the transmit port finishes, then a FIFO port
serialising one frame at a time — with a booking made when the transmit
port finishes.  The claim is exactness, not approximation: fed the same
frames, the booked port delivers the same frames at the same simulated
times (to the float) in the same order as the staged port would.

Random streams of mixed-size frames from several senders go into one
receiver, on both models side by side.  Some frames take the staged path
on purpose (as a nemesis-delayed frame does), and the receiver is paused
and resumed, re-rated, crashed (its port purged) and restarted
mid-stream; three explicit examples put a crash, a pause and a rate
change on a frame in flight, so every run takes each of those paths.
The reference is kept here, small: it is the receive path as it was
before the booking existed.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.env import SimEnv
from repro.sim.network import Network
from repro.sim.nic import Nic, Port
from repro.sim.wire import WireModel

#: Rates and delays with no common structure, so a fault never lands on
#: the same float as a frame's arrival or finish.
BANDWIDTH = 8_000.0 * 1.0137
SLOWER = BANDWIDTH / 2.718
PROPAGATION = 0.0123457
TICK = 0.0031 * 1.00071
SENDERS = 3


class _Owner:
    alive = True


class _StagedPort:
    """The receive port before booking: FIFO, one frame at a time, a
    finish event per frame, paused ports hold their queue."""

    def __init__(self, scheduler, bandwidth: float):
        self.scheduler = scheduler
        self.bandwidth = bandwidth
        self.queue: deque = deque()
        self.busy = False
        self.paused = False

    def submit(self, size: int, frame, deliver) -> None:
        if self.busy or self.paused:
            self.queue.append((size, frame, deliver))
        else:
            self._start(size, frame, deliver)

    def _start(self, size: int, frame, deliver) -> None:
        self.busy = True
        self.scheduler.schedule(size * 8.0 / self.bandwidth, self._finish, frame, deliver)

    def _finish(self, frame, deliver) -> None:
        deliver(frame)
        if not self.paused and self.queue:
            self._start(*self.queue.popleft())
        else:
            self.busy = False

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False
        if not self.busy and self.queue:
            self._start(*self.queue.popleft())


def _wire() -> WireModel:
    return WireModel(app_header=0, segment_overhead=0, min_frame=1, mss=10**9)


def _booked(frames, faults):
    """Deliveries of ``frames`` through ``Network`` and ``RxPort``."""
    env = SimEnv()
    net = Network(env, "lan", _wire(), propagation_delay=PROPAGATION)
    receiver = Nic(env, "rx", BANDWIDTH)
    senders = [Nic(env, f"tx{i}", BANDWIDTH) for i in range(SENDERS)]
    for nic in (receiver, *senders):
        net.attach(nic)
    receiver.owner = _Owner()
    got = []

    def deliver(frame) -> None:
        got.append((frame, env.now))

    def send(frame, sender, size, staged_delay) -> None:
        if staged_delay is None:
            net.unicast(senders[sender], receiver, size, frame, deliver)
        else:
            net.schedule_arrival(staged_delay, receiver, size, frame, deliver)

    def crash() -> None:
        receiver.owner.alive = False
        receiver.rx.purge()

    def restart() -> None:
        receiver.owner.alive = True

    actions = {
        "pause": receiver.rx.pause,
        "resume": receiver.rx.resume,
        "slow": lambda: receiver.rx.set_bandwidth(SLOWER),
        "crash": crash,
        "restart": restart,
    }
    for index, (at, sender, size, staged_delay) in enumerate(frames):
        env.scheduler.schedule(at, send, index, sender, size, staged_delay)
    for at, name in faults:
        env.scheduler.schedule(at, actions[name])
    env.run_until_idle()
    return got


def _staged(frames, faults):
    """Deliveries of the same frames through the reference port."""
    env = SimEnv()
    scheduler = env.scheduler
    ports = [Port(env, f"tx{i}", BANDWIDTH) for i in range(SENDERS)]
    rx = _StagedPort(scheduler, BANDWIDTH)
    alive = [True]
    got = []

    def deliver(frame) -> None:
        got.append((frame, env.now))

    def arrive(frame, size) -> None:
        if alive[0]:
            rx.submit(size, frame, deliver)

    def sent(frame, size) -> None:
        scheduler.schedule(PROPAGATION, arrive, frame, size)

    def send(frame, sender, size, staged_delay) -> None:
        if staged_delay is None:
            ports[sender].submit(size, sent, (frame, size))
        else:
            scheduler.schedule(staged_delay, arrive, frame, size)

    def crash() -> None:
        alive[0] = False
        rx.queue.clear()

    def restart() -> None:
        alive[0] = True

    def slow() -> None:
        rx.bandwidth = SLOWER

    actions = {
        "pause": rx.pause, "resume": rx.resume, "slow": slow,
        "crash": crash, "restart": restart,
    }
    for index, (at, sender, size, staged_delay) in enumerate(frames):
        scheduler.schedule(at, send, index, sender, size, staged_delay)
    for at, name in faults:
        scheduler.schedule(at, actions[name])
    env.run_until_idle()
    return got


#: A frame: send tick, sender, wire bytes, and ``None`` (booked at send)
#: or a staged arrival delay of at least one propagation delay.
frames_st = st.lists(
    st.tuples(
        st.integers(0, 150).map(lambda k: k * TICK),
        st.integers(0, SENDERS - 1),
        st.integers(1, 60),
        st.one_of(
            st.none(), st.integers(0, 5).map(lambda k: PROPAGATION * (1 + k * 0.731))
        ),
    ),
    min_size=8,
    max_size=60,
)


@st.composite
def scenario_st(draw):
    """Frames, then faults: pause then resume, and crash then restart,
    each at odd offsets, and optionally a rate change.  A fault instant
    is drawn anywhere, or just after some frame left its sender, where
    frames are on the wire or booked and not yet started; a restart sometimes
    comes back within one propagation delay, before the frames that
    were on the wire at the crash arrive."""
    frames = draw(frames_st)

    def instant() -> float:
        if draw(st.booleans()):
            # While a frame is on the wire (if its sender's port was
            # free), or a little later, while it may wait at the port.
            sent, _sender, size, _staged = draw(st.sampled_from(frames))
            on_wire = sent + size * 8.0 / BANDWIDTH
            return on_wire + draw(st.integers(1, 30)) * PROPAGATION / 10.3 + 1e-7
        return (draw(st.integers(0, 250)) + 0.5) * TICK * 1.0313

    def soon() -> float:
        if draw(st.booleans()):
            return draw(st.integers(1, 20)) * PROPAGATION / 23.3
        return instant() / 5 + 1e-7

    faults = []
    if draw(st.booleans()):
        pause = instant()
        faults += [(pause, "pause"), (pause + instant() / 3 + 1e-7, "resume")]
    if draw(st.booleans()):
        crash = instant()
        faults += [(crash, "crash"), (crash + soon(), "restart")]
    if draw(st.booleans()):
        faults.append((instant(), "slow"))
    return frames, faults


#: Two frames of 10 bytes: the first (sender 0, sent at 0) is on the
#: wire from 9.87 ms and arrives at 22.2 ms; the second (sender 1) leaves
#: at 19.9 ms, while the first is still due.
_TWO = [(0.0, 0, 10, None), (0.010, 1, 10, None)]


@settings(max_examples=200, deadline=None)
@given(scenario_st())
# Crashed with the first frame on the wire, back before it arrives.
@example((_TWO, [(0.015, "crash"), (0.018, "restart")]))
# Paused just before the first frame arrives, resumed before it does.
@example((_TWO, [(0.0217, "pause"), (0.0219, "resume")]))
# Re-rated with the first frame booked and not yet started.
@example((_TWO, [(0.015, "slow")]))
def test_booked_port_delivers_what_the_staged_port_delivers(scenario):
    frames, faults = scenario
    assert _booked(frames, faults) == _staged(frames, faults)


def test_a_healthy_frame_costs_two_events():
    """The point of the booking: a transmit finish and a delivery."""
    env = SimEnv()
    net = Network(env, "lan", _wire(), propagation_delay=PROPAGATION)
    a, b = Nic(env, "a", BANDWIDTH), Nic(env, "b", BANDWIDTH)
    net.attach(a)
    net.attach(b)
    for _ in range(5):
        net.unicast(a, b, 10, "m", lambda m: None)
    env.run_until_idle()
    assert env.scheduler.events_fired == 10
