"""The value-backend seam (``repro/core/values.py``) on its own.

``CodedValues`` is driven against a minimal fake core — only the
attributes and the five protocol methods a backend may touch — so these
tests pin what the backend itself decides: when a pre-write may be
forwarded, what a merged entry becomes, where a failed reconstruction
sends its readers.  ``ReplicatedValues`` must answer every question with
its input.
"""

from __future__ import annotations

from repro.core import coding
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    ClientRead,
    FragmentFetch,
    FragmentReply,
    FragmentStore,
    OpId,
    PendingEntry,
    PreWrite,
    ReadAck,
)
from repro.core.ring import RingView
from repro.core.tags import Tag
from repro.core.values import CodedValues, ReplicatedValues

N, K, ME = 4, 2, 1
VALUE = b"a value worth striping " * 9
SHARES = coding.encode(VALUE, K, N)
TAG, OP = Tag(3, 0), OpId(70, 1)
READER, READ = 71, OpId(71, 0)


class FakeCore:
    """What a backend may see of ``ServerProtocol``, and nothing else."""

    def __init__(self):
        self.server_id = ME
        self.ring = RingView.initial(N)
        self.config = ProtocolConfig(
            view_quorum=True, value_coding="coded", coding_k=K, coding_n=N
        )
        self.tag, self.value, self.frag_tag = Tag.ZERO, b"", None
        self.pending: dict = {}
        self.watermark: dict = {}  # nothing committed: no tag is stale
        self.outbox: list = []
        self.deferred_reads: list = []
        self.installed_epoch = 5
        self.paused = False
        self.replies: list = []
        self.noted: list = []
        self.reentered: list = []
        self.completed: set = set()
        self.stats_duplicates_dropped = 0
        self.stats_coding_fragment_stores = 0
        self.stats_coding_cache_reads = 0
        self.stats_coding_reconstructions = 0
        self.stats_coding_repairs = 0
        self.stats_coding_pending_dropped = 0

    def _reply(self, client, message):
        self.replies.append((client, message))

    def _note_tag(self, tag):
        self.noted.append(tag)

    def _op_completed(self, op):
        return op in self.completed

    def _on_pre_write(self, message):
        self.reentered.append(message)

    def _repair_stored(self, stored):
        self.value, self.frag_tag = stored, None


def _coded() -> tuple[FakeCore, CodedValues]:
    core = FakeCore()
    return core, CodedValues(core)


def _token(shares: dict[int, bytes]) -> PendingEntry:
    return PendingEntry(TAG, coding.pack_fragments(shares), OP)


def test_a_prewrite_parks_until_its_share_arrives_then_forwards():
    core, values = _coded()
    prewrite = PreWrite(TAG, b"", OP)

    assert not values.may_forward(prewrite), "no share yet: park"
    assert not values.may_forward(prewrite), "a second copy is a duplicate"
    assert core.stats_duplicates_dropped == 1
    assert core.reentered == []

    # Somebody else's share is not ours to stash.
    values.on_message(FragmentStore(TAG, OP, 0, SHARES[0], 5))
    assert core.reentered == [] and core.stats_coding_fragment_stores == 0

    values.on_message(FragmentStore(TAG, OP, ME, SHARES[ME], 5))
    assert core.noted == [TAG, TAG]
    assert core.stats_coding_fragment_stores == 1
    assert core.reentered == [prewrite], "the parked pre-write re-enters the core"

    assert values.may_forward(prewrite)
    assert values.peek_stored(prewrite) == SHARES[ME]  # a token snapshot peeks
    assert values.take_stored(prewrite) == SHARES[ME]  # the forward consumes
    assert values.take_stored(prewrite) is None


def test_a_share_for_a_completed_operation_kills_the_parked_prewrite():
    core, values = _coded()
    prewrite = PreWrite(TAG, b"", OP)
    assert not values.may_forward(prewrite)
    core.completed.add(OP)
    values.on_message(FragmentStore(TAG, OP, ME, SHARES[ME], 5))
    assert core.reentered == [] and core.stats_duplicates_dropped == 1
    assert not values.may_forward(prewrite), "parks afresh: the old one is gone"
    assert core.stats_duplicates_dropped == 1


def test_a_merged_entry_with_fewer_than_k_shares_is_dropped():
    core, values = _coded()
    assert values.adopt_entry(_token({ME: SHARES[ME]})) is None, (
        "the decision is a function of the union alone — even the holder drops"
    )
    assert core.stats_coding_pending_dropped == 1
    assert core.stats_coding_repairs == 0


def test_a_merged_entry_missing_our_share_is_repaired_and_counted():
    core, values = _coded()
    adopted = values.adopt_entry(_token({0: SHARES[0], 3: SHARES[3]}))
    assert adopted == PendingEntry(TAG, SHARES[ME], OP)
    assert core.stats_coding_repairs == 1

    kept = values.adopt_entry(_token({0: SHARES[0], ME: SHARES[ME]}))
    assert kept == PendingEntry(TAG, SHARES[ME], OP)
    assert core.stats_coding_repairs == 1, "own share present: nothing to repair"


def test_the_merged_register_is_repaired_cached_or_left_lagging():
    core, values = _coded()
    blob = coding.pack_fragments({0: SHARES[0], 2: SHARES[2]})
    assert values.adopt_register(TAG, blob) == SHARES[ME]
    assert core.stats_coding_repairs == 1
    core.tag = TAG
    values.answer_read(READER, READ)
    assert core.replies == [(READER, ReadAck(READ, VALUE, TAG))], "repair seeds the cache"
    assert core.stats_coding_cache_reads == 1

    short = coding.pack_fragments({0: SHARES[0]})
    assert values.adopt_register(Tag(4, 0), short) is None, "tag advances; share lags"


def test_token_entries_union_shares_hop_by_hop():
    core, values = _coded()
    ours = PendingEntry(TAG, values.token_form(SHARES[ME]), OP)
    merged = values.merge_entry(_token({0: SHARES[0]}), ours)
    assert coding.unpack_fragments(merged.value) == {0: SHARES[0], ME: SHARES[ME]}

    # The register merge: the higher tag wins, our share for it rides along.
    core.tag, core.value = TAG, SHARES[ME]
    tag, blob = values.merge_register(Tag(2, 2), b"ignored: the token lost")
    assert tag == TAG and coding.unpack_fragments(blob) == {ME: SHARES[ME]}
    core.frag_tag = Tag(1, 0)  # our bytes lag the tag: nothing to contribute
    assert values.token_form(None) == coding.pack_fragments({})
    tag, blob = values.merge_register(TAG, coding.pack_fragments({3: SHARES[3]}))
    assert tag == TAG and coding.unpack_fragments(blob) == {3: SHARES[3]}


def _fetches(core: FakeCore) -> list[tuple[int, FragmentFetch]]:
    return [(peer, m) for peer, m in core.outbox if isinstance(m, FragmentFetch)]


def test_a_reconstruction_completes_on_the_kth_share():
    core, values = _coded()
    core.tag, core.value = TAG, SHARES[ME]
    values.answer_read(READER, READ)
    values.answer_read(READER + 1, OpId(READER + 1, 0))  # coalesces
    fetches = _fetches(core)
    assert [peer for peer, _m in fetches] == [0, 2, 3]
    nonce = fetches[0][1].nonce
    assert all(m == FragmentFetch(nonce, TAG, ME, 5) for _p, m in fetches)

    values.on_message(FragmentReply(nonce, TAG, 3, SHARES[3], 5))
    assert core.replies == [
        (READER, ReadAck(READ, VALUE, TAG)),
        (READER + 1, ReadAck(OpId(READER + 1, 0), VALUE, TAG)),
    ]
    assert core.stats_coding_reconstructions == 1
    values.on_message(FragmentReply(nonce, TAG, 0, SHARES[0], 5))  # late: ignored
    assert len(core.replies) == 2


def test_a_reconstruction_that_falls_short_reroutes_its_waiters():
    core, values = _coded()
    core.tag, core.value = TAG, SHARES[ME]
    values.answer_read(READER, READ)
    nonce = _fetches(core)[0][1].nonce
    values.on_message(FragmentReply(nonce, TAG, -1, b"", 5))
    values.on_message(FragmentReply(nonce, TAG, -1, b"", 5))
    assert core.replies == [] and len(_fetches(core)) == 3

    # Peers that missed have moved past the tag; by the time the round is
    # known to be short, so have we.  The waiter must chase the new tag.
    newer = Tag(4, 2)
    core.tag, core.value = newer, coding.encode(b"newer", K, N)[ME]
    values.on_message(FragmentReply(nonce, TAG, -1, b"", 5))
    assert core.replies == []
    second = _fetches(core)[3:]
    assert [peer for peer, _m in second] == [0, 2, 3]
    assert all(m.tag == newer and m.nonce != nonce for _p, m in second)


def test_reads_in_flight_across_a_view_change_are_deferred_again():
    core, values = _coded()
    core.tag, core.value = TAG, SHARES[ME]
    values.answer_read(READER, READ)
    values.abort_reads()
    assert core.deferred_reads == [(READER, ClientRead(READ))]
    nonce = _fetches(core)[0][1].nonce
    values.on_message(FragmentReply(nonce, TAG, 3, SHARES[3], 5))
    assert core.replies == [], "the aborted round's replies are orphans"


def test_a_lagging_share_is_repaired_through_the_core_on_read():
    core, values = _coded()
    core.tag, core.value, core.frag_tag = TAG, b"share of an older tag", Tag(1, 0)
    values.answer_read(READER, READ)
    nonce = _fetches(core)[0][1].nonce
    values.on_message(FragmentReply(nonce, TAG, 0, SHARES[0], 5))
    assert core.replies == []
    values.on_message(FragmentReply(nonce, TAG, 2, SHARES[2], 5))
    assert core.replies == [(READER, ReadAck(READ, VALUE, TAG))]
    assert (core.value, core.frag_tag) == (SHARES[ME], None)
    assert core.stats_coding_repairs == 1


def test_an_initiation_scatters_one_share_per_live_peer():
    core, values = _coded()
    core.ring = core.ring.without(2)
    stored, wire = values.stage_write(TAG, OP, VALUE)
    assert (stored, wire) == (SHARES[ME], b"")
    assert core.outbox == [
        (0, FragmentStore(TAG, OP, 0, SHARES[0], 5)),
        (3, FragmentStore(TAG, OP, 3, SHARES[3], 5)),
    ]
    # Our own read after the circle closed never pays a reconstruction.
    core.tag, core.value = TAG, stored
    values.own_circle_closed(TAG)
    values.answer_read(READER, READ)
    assert core.replies == [(READER, ReadAck(READ, VALUE, TAG))]
    assert core.stats_coding_cache_reads == 1


def test_replicated_values_answers_every_question_with_its_input():
    core = FakeCore()
    core.tag, core.value = Tag(2, 1), b"the register"
    values = ReplicatedValues(core)
    prewrite = PreWrite(TAG, VALUE, OP)
    entry = PendingEntry(TAG, VALUE, OP)
    other = PendingEntry(TAG, b"ours", OP)

    # The write-path hooks a passthrough backend is never asked are gone.
    assert values.passthrough and not CodedValues.passthrough
    for skipped in ("stage_write", "own_circle_closed", "may_forward"):
        assert not hasattr(values, skipped) and hasattr(CodedValues, skipped)
    assert values.localize(TAG, VALUE) is VALUE
    assert values.take_stored(prewrite) is VALUE
    assert values.peek_stored(prewrite) is VALUE
    assert values.token_form(VALUE) is VALUE
    assert values.merge_entry(entry, other) is entry
    assert values.adopt_register(TAG, VALUE) is VALUE
    assert values.adopt_entry(entry) is entry
    assert values.merge_register(TAG, VALUE) == (TAG, VALUE)
    assert values.merge_register(Tag(1, 0), VALUE) == (Tag(2, 1), b"the register")
    for nothing in (values.forget(TAG), values.abort_reads(), values.merged()):
        assert nothing is None
    values.answer_read(READER, READ)
    assert core.replies == [(READER, ReadAck(READ, b"the register", Tag(2, 1)))]

    # Fragment traffic means nothing here — except that a tag was seen.
    values.on_message(FragmentStore(TAG, OP, ME, b"x", 5))
    values.on_message(FragmentFetch(1, TAG, 0, 5))
    values.on_message(FragmentReply(1, TAG, 0, b"x", 5))
    assert core.noted == [TAG]
    assert core.outbox == [] and core.deferred_reads == [] and core.pending == {}
