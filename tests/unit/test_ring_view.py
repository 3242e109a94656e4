"""Unit tests for ring membership views."""

import pytest

from repro.core.ring import RingView
from repro.errors import ConfigurationError


def test_initial_ring_members():
    ring = RingView.initial(4)
    assert ring.members == (0, 1, 2, 3)
    assert ring.alive() == [0, 1, 2, 3]
    assert ring.epoch == 0


def test_successor_wraps_around():
    ring = RingView.initial(3)
    assert ring.successor(0) == 1
    assert ring.successor(2) == 0


def test_predecessor_wraps_around():
    ring = RingView.initial(3)
    assert ring.predecessor(0) == 2
    assert ring.predecessor(1) == 0


def test_successor_skips_dead(ring5):
    ring = ring5.without(1).without(2)
    assert ring.successor(0) == 3
    assert ring.predecessor(3) == 0
    assert ring.epoch == 2


def test_single_survivor_is_own_successor(ring5):
    ring = ring5.with_dead([0, 1, 2, 3])
    assert ring.successor(4) == 4
    assert ring.predecessor(4) == 4
    assert ring.num_alive == 1


def test_adopter_is_closest_alive_predecessor(ring5):
    ring = ring5.without(2)
    assert ring.adopter(2) == 1
    ring = ring.without(1)
    assert ring.adopter(2) == 0
    assert ring.adopter(1) == 0


def test_adopter_requires_dead_server(ring5):
    with pytest.raises(ConfigurationError):
        ring5.adopter(2)


def test_cannot_kill_everyone(ring5):
    with pytest.raises(ConfigurationError):
        ring5.with_dead([0, 1, 2, 3, 4])


def test_without_unknown_server_raises(ring5):
    with pytest.raises(ConfigurationError):
        ring5.without(99)


def test_views_are_immutable(ring5):
    smaller = ring5.without(0)
    assert ring5.num_alive == 5
    assert smaller.num_alive == 4


def test_needs_at_least_one_server():
    with pytest.raises(ConfigurationError):
        RingView.initial(0)


def test_is_alive(ring5):
    ring = ring5.without(3)
    assert ring.is_alive(0)
    assert not ring.is_alive(3)
    assert not ring.is_alive(42)


def test_revived_restores_original_slot():
    from repro.core.ring import RingView

    ring = RingView.initial(4).without(1).without(2)
    revived = ring.revived(1)
    assert revived.is_alive(1)
    assert revived.dead == {2}
    # The rejoiner takes back its original slot in the member order.
    assert revived.successor(0) == 1
    assert revived.successor(1) == 3


def test_revived_is_noop_for_live_server_and_rejects_unknown():
    import pytest

    from repro.core.ring import RingView
    from repro.errors import ConfigurationError

    ring = RingView.initial(3).without(2)
    assert ring.revived(0) is ring
    with pytest.raises(ConfigurationError):
        ring.revived(9)


def test_revive_all_filters_to_the_dead():
    from repro.core.ring import RingView

    ring = RingView.initial(4).with_dead((1, 3))
    assert ring.revive_all(()) is ring
    assert ring.revive_all((0,)) is ring  # nothing dead in the set
    grown = ring.revive_all((1, 3, 0))
    assert grown.dead == frozenset()


def test_epoch_grows_monotonically_through_revivals():
    """Unlike the historic len(dead) rule, the epoch keeps growing when
    recovery re-grows the ring, so views never repeat an epoch."""
    ring = RingView.initial(4)
    assert ring.epoch == 0
    shrunk = ring.without(1)
    assert shrunk.epoch == 1
    grown = shrunk.revived(1)
    assert grown.dead == frozenset()
    assert grown.epoch == 2, "reviving bumps the epoch too"
    assert grown.with_dead((2, 3)).epoch == 3
    assert grown.with_dead(()).epoch == 2, "no change, no bump"
    assert shrunk.revive_all((1,)).epoch == 2


def test_at_epoch_replaces_dead_set_wholesale():
    ring = RingView.initial(4).without(1)
    adopted = ring.at_epoch(7, dead=(2,))
    assert adopted.epoch == 7
    assert adopted.dead == {2}
    assert adopted.is_alive(1), "adoption replaces, never unions"
    assert ring.at_epoch(ring.epoch) is ring


def test_quorum_is_majority_of_alive():
    ring = RingView.initial(5)
    assert ring.quorum == 3
    assert ring.without(0).quorum == 3
    assert ring.with_dead((0, 1)).quorum == 2
    assert RingView.initial(1).quorum == 1


def _walk(view, start, step):
    """The splice rule spelled out: step through the initial order,
    skipping dead members."""
    index, n = view.members.index(start), len(view.members)
    for offset in range(1, n + 1):
        candidate = view.members[(index + step * offset) % n]
        if candidate not in view.dead:
            return candidate


def test_neighbours_match_the_ring_walk_for_every_dead_set():
    """successor/predecessor are looked up in per-view tables; they must
    be what walking the ring gives, for dead and alive start points."""
    members = (4, 0, 7, 2, 5)
    for mask in range(2 ** len(members) - 1):  # all-dead is not a view
        dead = frozenset(m for bit, m in enumerate(members) if mask >> bit & 1)
        view = RingView(members, dead)
        for member in members:
            assert view.successor(member) == _walk(view, member, +1)
            assert view.predecessor(member) == _walk(view, member, -1)
            assert view.is_alive(member) == (member not in dead)
        for member in dead:
            assert view.adopter(member) == _walk(view, member, -1)
        assert not view.is_alive(99)
        with pytest.raises(ConfigurationError):
            view.successor(99)
        with pytest.raises(ConfigurationError):
            view.predecessor(99)


def test_derived_tables_stay_out_of_equality_hash_and_repr():
    a = RingView((0, 1, 2), frozenset({1}), 3)
    b = RingView((0, 1, 2)).without(1).at_epoch(3)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "RingView(members=(0, 1, 2), dead=frozenset({1}), epoch=3)"
