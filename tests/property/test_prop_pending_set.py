"""``PendingSet`` against a brute-force model, and the invariant that lets
``ServerProtocol._next_ts`` ignore the pending set.

The model is what the server used to do: a plain dict scanned with
``max_tag`` for the maximum and with a list comprehension for the tags
of one operation.  ``PendingSet`` must agree with it after every step of
any add/pop/del/setdefault/clear sequence — including when the current
maximum is removed, which is the one case its tracked maximum has to be
recomputed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import PROFILES, generate_schedule, run_schedule
from repro.core.messages import OpId, PendingEntry
from repro.core.pending import PendingSet
from repro.core.server import ServerProtocol
from repro.core.tags import Tag, max_tag

# A small universe so sequences revisit tags, share operations between
# tags (duplicate initiations) and keep removing the maximum.
TAGS = [Tag(ts, sid) for ts in range(1, 5) for sid in range(3)]
OPS = [OpId(client, 0) for client in range(4)]


def _op_of(tag: Tag) -> OpId:
    """A tag names one write for life; several tags may name the same."""
    return OPS[(tag.ts + tag.server_id) % len(OPS)]


def _entry(tag: Tag, value: bytes = b"v") -> PendingEntry:
    return PendingEntry(tag, value, _op_of(tag))


steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(TAGS), st.binary(max_size=2)),
        st.tuples(st.just("pop"), st.sampled_from(TAGS)),
        st.tuples(st.just("pop_default"), st.sampled_from(TAGS)),
        st.tuples(st.just("del"), st.sampled_from(TAGS)),
        st.tuples(st.just("setdefault"), st.sampled_from(TAGS)),
        st.tuples(st.just("pop_max")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _agrees(pending: PendingSet, model: dict) -> None:
    assert pending == model
    assert list(pending.items()) == list(model.items()), "insertion order"
    assert len(pending) == len(model) and bool(pending) == bool(model)
    assert pending.maxlex() == max_tag(model)
    for op in OPS:
        assert pending.tags_of(op) == tuple(
            tag for tag, entry in model.items() if entry.op == op
        )


@given(steps)
@settings(max_examples=400)
def test_pending_set_matches_the_scanning_model(sequence):
    pending, model = PendingSet(), {}
    for step in sequence:
        kind = step[0]
        if kind == "add":
            entry = _entry(step[1], step[2])
            pending[entry.tag] = entry
            model[entry.tag] = entry
        elif kind == "pop":
            if step[1] in model:
                assert pending.pop(step[1]) is model.pop(step[1])
            else:
                with pytest.raises(KeyError):
                    pending.pop(step[1])
        elif kind == "pop_default":
            assert pending.pop(step[1], None) is model.pop(step[1], None)
        elif kind == "del":
            if step[1] in model:
                del pending[step[1]]
                del model[step[1]]
            else:
                with pytest.raises(KeyError):
                    del pending[step[1]]
        elif kind == "setdefault":
            entry = _entry(step[1], b"default")
            assert pending.setdefault(entry.tag, entry) is model.setdefault(
                entry.tag, entry
            )
        elif kind == "pop_max":
            if model:
                top = max_tag(model)
                assert pending.maxlex() == top
                assert pending.pop(top) is model.pop(top)
        else:
            pending.clear()
            model.clear()
        _agrees(pending, model)


@given(st.lists(st.sampled_from(TAGS), unique=True))
def test_built_from_entries_like_the_snapshot_restore(tags):
    entries = [_entry(tag) for tag in tags]
    _agrees(PendingSet(entries), {entry.tag: entry for entry in entries})


def test_a_tag_re_added_under_another_operation_moves_to_it():
    tag, other = Tag(2, 0), Tag(1, 2)
    pending = PendingSet([_entry(tag), _entry(other)])
    moved = PendingEntry(tag, b"v", OpId(77, 0))
    pending[tag] = moved
    assert pending.tags_of(_op_of(tag)) == ()
    assert pending.tags_of(moved.op) == (tag,)
    assert pending[tag] is moved and pending.maxlex() == tag


@pytest.mark.parametrize("mutator", ["update", "popitem", "__ior__"])
def test_mutators_that_would_bypass_the_index_are_refused(mutator):
    pending = PendingSet([_entry(TAGS[0])])
    with pytest.raises(TypeError):
        getattr(pending, mutator)({})
    assert list(pending) == [TAGS[0]]


@pytest.mark.parametrize(
    "profile,index",
    [("core", 3), ("core", 11), ("partition", 2), ("coded", 5), ("lease", 4)],
)
def test_ts_seen_dominates_pending_at_every_initiation(monkeypatch, profile, index):
    """``_next_ts`` reads ``ts_seen`` and the installed tag only.  That
    is sound because every tag is noted before it can become pending;
    check it where tags arrive by every route — crashes, restarts,
    partitions, merges, fragments."""
    next_ts = ServerProtocol._next_ts
    initiations = []

    def checked(self):
        assert max_tag(self.pending).ts <= self.ts_seen
        assert self.pending.maxlex() == max_tag(self.pending)
        initiations.append(self.server_id)
        return next_ts(self)

    monkeypatch.setattr(ServerProtocol, "_next_ts", checked)
    result = run_schedule(generate_schedule(0, index, 4, PROFILES[profile]))
    assert result.linearizable
    assert initiations, "the schedule must have initiated writes"
