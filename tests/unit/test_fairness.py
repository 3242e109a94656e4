"""Unit tests for the nb_msg fair forwarding scheduler (lines 53-75)."""

from repro.core.fairness import INITIATE_OWN, FairScheduler


def test_empty_queue_initiates_own_when_wanted():
    sched = FairScheduler(server_id=0)
    assert sched.choose(want_initiate=True) == INITIATE_OWN
    assert sched.choose(want_initiate=False) is None


def test_empty_queue_resets_counters():
    sched = FairScheduler(server_id=0)
    sched.enqueue(1, "m1")
    sched.choose(want_initiate=False)  # forwards m1; counters nb[1]=1
    assert sched.nb_msg.get(1) == 1
    assert sched.choose(want_initiate=False) is None  # queue now empty -> reset
    assert sched.nb_msg == {}


def test_min_counter_origin_served_first():
    sched = FairScheduler(server_id=0)
    sched.enqueue(1, "a1")
    sched.enqueue(1, "a2")
    sched.enqueue(2, "b1")
    first = sched.choose(want_initiate=False)
    assert first == (1, "a1")  # tie broken by lowest origin id
    second = sched.choose(want_initiate=False)
    assert second == (2, "b1")  # origin 2 now has the smaller counter
    third = sched.choose(want_initiate=False)
    assert third == (1, "a2")


def test_self_competes_via_own_counter():
    sched = FairScheduler(server_id=0)
    sched.enqueue(1, "a1")
    sched.enqueue(1, "a2")
    # Initiating counts against self (line 26).
    assert sched.choose(want_initiate=True) == INITIATE_OWN
    sched.note_initiated()
    # Now origin 1 (counter 0) wins over self (counter 1).
    assert sched.choose(want_initiate=True) == (1, "a1")
    # Counters equal -> lowest id wins; self is id 0.
    assert sched.choose(want_initiate=True) == INITIATE_OWN


def test_per_origin_fifo_preserved():
    sched = FairScheduler(server_id=0)
    for i in range(3):
        sched.enqueue(7, f"m{i}")
    got = [sched.choose(want_initiate=False)[1] for _ in range(3)]
    assert got == ["m0", "m1", "m2"]


def test_unfair_mode_always_prefers_self():
    sched = FairScheduler(server_id=0, fair=False)
    sched.enqueue(1, "a1")
    assert sched.choose(want_initiate=True) == INITIATE_OWN
    assert sched.choose(want_initiate=True) == INITIATE_OWN
    # Only when there is nothing of our own does forwarding happen.
    assert sched.choose(want_initiate=False) == (1, "a1")


def test_drain_returns_fifo_and_clears():
    sched = FairScheduler(server_id=0)
    sched.enqueue(1, "a1")
    sched.enqueue(2, "b1")
    sched.enqueue(1, "a2")
    drained = sched.drain()
    assert drained == [(1, "a1"), (2, "b1"), (1, "a2")]
    assert sched.empty
    assert sched.drain() == []


def test_len_and_origins_queued():
    sched = FairScheduler(server_id=0)
    assert len(sched) == 0
    sched.enqueue(3, "x")
    sched.enqueue(4, "y")
    assert len(sched) == 2
    assert sorted(sched.origins_queued()) == [3, 4]


def test_no_origin_starves_under_saturation():
    """Every origin with queued work gets served within n picks."""
    sched = FairScheduler(server_id=0)
    origins = [1, 2, 3, 4]
    for round_no in range(100):
        for origin in origins:
            sched.enqueue(origin, f"{origin}-{round_no}")
    served: dict[int, int] = {}
    for _ in range(400):
        origin, _item = sched.choose(want_initiate=False)
        served[origin] = served.get(origin, 0) + 1
    # Perfect fairness: equal share for all four origins.
    assert all(count == 100 for count in served.values()), served


def test_drain_after_interleaved_choices_keeps_arrival_order():
    """Forwarding pops one origin's oldest item; what is left drains in
    the order it arrived, across origins."""
    sched = FairScheduler(server_id=0)
    for i in range(3):
        sched.enqueue(1, f"a{i}")
        sched.enqueue(2, f"b{i}")
    assert sched.choose(want_initiate=False) == (1, "a0")
    sched.enqueue(3, "c0")
    assert sched.choose(want_initiate=False) == (2, "b0")
    assert sched.choose(want_initiate=False) == (3, "c0")
    sched.enqueue(1, "a3")
    assert sched.choose(want_initiate=False) == (1, "a1")
    assert sched.drain() == [(2, "b1"), (1, "a2"), (2, "b2"), (1, "a3")]
    assert sched.empty and len(sched) == 0


def test_unfair_forwarding_is_fifo_across_origins():
    sched = FairScheduler(server_id=0, fair=False)
    for origin, item in [(2, "b0"), (1, "a0"), (2, "b1")]:
        sched.enqueue(origin, item)
    got = [sched.choose(want_initiate=False) for _ in range(3)]
    assert got == [(2, "b0"), (1, "a0"), (2, "b1")]
    assert sched.choose(want_initiate=False) is None
