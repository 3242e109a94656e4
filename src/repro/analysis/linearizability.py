"""Linearizability (atomicity) checkers for read/write register histories.

Atomicity [Herlihy & Wing] — the paper's correctness property — requires
every operation to appear to take effect at one instant between its
invocation and its response.  Three checkers are provided:

``check_register_history``
    A fast value-based checker for histories with **unique written
    values**.  It reduces atomicity to a sequencing problem over value
    *clusters* (a write plus all reads returning its value) and solves it
    with a memoised greedy search that is near-linear on well-behaved
    histories.  Used by every integration and property test.

``check_register_history_slow``
    The classic Wing–Gong exhaustive search with memoisation, usable for
    small histories.  Property tests cross-validate the fast checker
    against it on random histories.

``check_tagged_history``
    An O(n log n) checker that additionally trusts the protocol's tags
    (every read/write in our runtimes records the tag of the value it
    saw/wrote).  Used on the multi-million-operation benchmark runs where
    the value-based search would be too slow.

The reduction used by the fast checker: let each value ``v`` have a
cluster ``C(v)``.  The write's linearization point must lie in
``[b(v), e(v)]`` with ``b(v) = start(W(v))`` and ``e(v) = min(end of ops
in C(v))``; a read of ``v`` can be placed iff the *next* write point in
the linearization does not precede the read's invocation.  Hence the
history is atomic iff the values can be sequenced with points
``p_1 <= p_2 <= ...``, ``p_i in [b_i, e_i]``, and
``p_{i+1} >= max(start of reads of v_i)``.  Real-time order between any
two operations is then automatically respected because every operation is
placed inside its own interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.analysis.history import History, Operation
from repro.errors import HistoryError

#: Result of a check: ``(ok, explanation)``.
CheckResult = tuple[bool, str]

_INF = math.inf


@dataclass(frozen=True)
class _Cluster:
    """A value's write interval plus its reads' constraints."""

    value: bytes
    b: float  # earliest write point (write invocation)
    e: float  # latest write point (min end over cluster ops)
    m: float  # latest read invocation (next write point must be >= m)


def _build_clusters(history: History, initial: bytes) -> tuple[list[_Cluster], str]:
    """Group operations into per-value clusters; returns (clusters, err)."""
    writes: dict[bytes, Operation] = {}
    for write in history.writes():
        if write.value in writes:
            raise HistoryError(
                "the value-based checker requires unique written values "
                f"(duplicate: {write.value!r})"
            )
        if write.value == initial:
            raise HistoryError("a write of the initial value is ambiguous")
        writes[write.value] = write

    reads_by_value: dict[bytes, list[Operation]] = {}
    for read in history.reads():
        if not read.complete:
            continue  # an open read constrains nothing
        reads_by_value.setdefault(read.value, []).append(read)

    clusters = []
    for value, read_list in reads_by_value.items():
        if value == initial:
            continue  # handled by the virtual initial write
        if value not in writes:
            return [], f"read returned {value!r} which was never written"
        write = writes[value]
        ends = [r.end for r in read_list]
        if write.complete:
            ends.append(write.end)
        e = min(ends)
        if e < write.start:
            return [], (
                f"read of {value!r} completed before its write was invoked"
            )
        m = max(r.start for r in read_list)
        clusters.append(_Cluster(value, write.start, e, m))

    for value, write in writes.items():
        if value in reads_by_value:
            continue
        if not write.complete:
            continue  # unread open write: may simply never take effect
        clusters.append(_Cluster(value, write.start, write.end, -_INF))

    # Reads of the initial value: the virtual initial write sits at -inf;
    # the first real write point must not precede any such read's start.
    initial_m = -_INF
    for read in reads_by_value.get(initial, []):
        initial_m = max(initial_m, read.start)
    if initial_m > -_INF:
        clusters.insert(0, _Cluster(initial, -_INF, -_INF, initial_m))
    return clusters, ""


def check_register_history(history: History, initial: bytes = b"") -> CheckResult:
    """Fast atomicity check for unique-value register histories.

    The value clusters are first split into time-independent *segments*:
    sweeping clusters by their write-interval start ``b``, a split is
    placed wherever no extended interval ``[b, max(e, m)]`` crosses.
    Segments can be sequenced independently (every later cluster's
    placement floor dominates any bound a prior segment could export),
    which keeps the per-segment search to the handful of genuinely
    concurrent clusters.  Within a segment a DFS with monotone-bound
    memoisation finds a sequencing; histories from concurrent runs have
    segment sizes on the order of the client count, so the check stays
    near-linear.
    """
    clusters, err = _build_clusters(history, initial)
    if err:
        return False, err
    real = [c for c in clusters if c.value != initial]
    virtual = [c for c in clusters if c.value == initial]
    base_bound = virtual[0].m if virtual else -_INF

    # Split into independent segments on the extended-interval sweep.
    ordered = sorted(real, key=lambda c: (c.b, c.e))
    segments: list[list[_Cluster]] = []
    current: list[_Cluster] = []
    current_end = base_bound
    for cluster in ordered:
        if current and cluster.b >= current_end:
            segments.append(current)
            current = []
            current_end = -_INF
        current.append(cluster)
        current_end = max(current_end, cluster.e, cluster.m)
    if current:
        segments.append(current)

    entering = base_bound
    for segment in segments:
        if not _sequence_segment(segment, entering):
            return False, "no valid sequencing of write points exists"
        entering = -_INF  # later segments are dominated by their own b's
    return True, "linearizable"


#: DFS step budget per segment; generous (segments are client-count
#: sized) but bounds pathological inputs instead of hanging.
_SEGMENT_STEP_BUDGET = 2_000_000


def _sequence_segment(segment: list[_Cluster], base_bound: float) -> bool:
    """Can the segment's clusters be sequenced from ``base_bound``?"""
    order = sorted(range(len(segment)), key=lambda i: (segment[i].e, segment[i].b))
    # Minimal bound known to make a remaining-set infeasible: bounds
    # only ever make things harder, so failing at b implies failing at
    # every b' >= b.
    failed_at: dict[frozenset, float] = {}
    steps = 0
    # A depth-first search with its recursion unrolled, so a segment of
    # any length fits: each frame is a remaining set, its bound and the
    # position in ``order`` of the next cluster to try placing first.
    stack: list[list] = []
    child: Optional[tuple[frozenset, float]] = (
        frozenset(range(len(segment))), base_bound
    )
    while True:
        if child is not None:  # enter it
            remaining, bound = child
            if not remaining:
                return True
            known = failed_at.get(remaining)
            if known is None or bound < known:
                steps += 1
                if steps > _SEGMENT_STEP_BUDGET:
                    raise HistoryError(
                        "linearizability search exceeded its step budget "
                        f"(segment of {len(segment)} clusters)"
                    )
                stack.append([remaining, bound, 0])
        if not stack:
            return False
        frame = stack[-1]
        remaining, bound, start = frame
        child = None
        for position in range(start, len(order)):
            index = order[position]
            if index not in remaining:
                continue
            cluster = segment[index]
            point = max(bound, cluster.b)
            if point <= cluster.e:
                frame[2] = position + 1
                child = (remaining - {index}, max(point, cluster.m))
                break
        if child is None:  # every placement from this frame failed
            stack.pop()
            failed_at[remaining] = min(failed_at.get(remaining, _INF), bound)


def check_register_history_slow(history: History, initial: bytes = b"") -> CheckResult:
    """Wing–Gong exhaustive linearizability check (small histories only).

    Open operations are handled by allowing them to linearize at any
    point after invocation or — for writes no read depends on — not at
    all.
    """
    operations = [op for op in history.operations if op.kind in ("read", "write")]
    if len(operations) > 22:
        raise HistoryError(
            f"slow checker invoked on {len(operations)} operations; "
            "use check_register_history for histories this large"
        )
    n = len(operations)
    ends = [op.end if op.end is not None else _INF for op in operations]

    @lru_cache(maxsize=None)
    def explore(done: frozenset, value: bytes) -> bool:
        if len(done) == n:
            return True
        # Earliest end among not-yet-linearized ops: anything invoked
        # after it cannot be linearized next (real-time order).
        horizon = min((ends[i] for i in range(n) if i not in done), default=_INF)
        for i in range(n):
            if i in done:
                continue
            op = operations[i]
            if op.start > horizon:
                continue
            if op.kind == "read" and op.value != value:
                continue
            next_value = op.value if op.kind == "write" else value
            if explore(done | {i}, next_value):
                return True
        # Open writes may also never take effect; model by allowing them
        # to be skipped when nothing read their value.
        for i in range(n):
            if i in done:
                continue
            op = operations[i]
            if op.kind == "write" and not op.complete:
                read_values = {
                    r.value for r in operations if r.kind == "read" and r.complete
                }
                if op.value not in read_values and explore(done | {i}, value):
                    return True
        return False

    ok = explore(frozenset(), initial)
    explore.cache_clear()
    return (True, "linearizable") if ok else (False, "no linearization found")


def check_tagged_history(
    history: History, require_full_coverage: bool = False
) -> CheckResult:
    """O(n log n) atomicity check using recorded protocol tags.

    Every completed operation must carry a ``tag`` attribute recorded by
    the runtime (reads: the tag returned with the value; writes: the tag
    the write committed under).  The check verifies that the tag order is
    a valid linearization:

    * if ``a`` precedes ``b`` in real time, then ``tag(a) <= tag(b)``,
      strictly when ``b`` is a write (tags are unique per write);
    * all operations sharing a tag observe the same value.

    Completed operations without a tag are skipped — they carry no
    evidence either way — which makes the check *vacuous* against a
    runtime that simply forgot to record tags.  Gates that rely on this
    checker must pass ``require_full_coverage=True``: any completed
    untagged operation then fails the check outright, and the
    explanation reports the coverage either way.
    """
    completed = [op for op in history.operations if op.complete]
    tagged = [op for op in completed if op.tag is not None]
    coverage = f"{len(tagged)}/{len(completed)} completed ops tagged"
    if require_full_coverage and len(tagged) < len(completed):
        return False, (
            f"tag coverage incomplete ({coverage}): an untagged operation "
            "proves nothing and must not pass the gate vacuously"
        )
    by_tag: dict = {}
    writes_by_tag: dict = {}
    for op in tagged:
        by_tag.setdefault(op.tag, set()).add(op.value)
        if op.kind == "write":
            if op.tag in writes_by_tag:
                return False, f"two writes committed under tag {op.tag}"
            writes_by_tag[op.tag] = op
    for tag, values in by_tag.items():
        if len(values) > 1:
            return False, f"operations with tag {tag} observed {len(values)} values"

    ordered = sorted(tagged, key=lambda op: op.start)
    events = sorted(tagged, key=lambda op: op.end)
    max_tag_ended = None
    # Sweep: every op that ended before this op started must not have
    # observed a larger tag; and a write's own tag must not have been
    # observed before the write started.
    j = 0
    for op in ordered:
        while j < len(events) and events[j].end < op.start:
            if max_tag_ended is None or events[j].tag > max_tag_ended:
                max_tag_ended = events[j].tag
            j += 1
        if max_tag_ended is None:
            continue
        if max_tag_ended > op.tag:
            return False, (
                f"operation starting at {op.start:.6f} observed tag {op.tag} "
                f"after an earlier-completed operation observed {max_tag_ended}"
            )
        if op.kind == "write" and max_tag_ended == op.tag:
            return False, (
                f"write tag {op.tag} was observed before the write started"
            )
    return True, f"linearizable (tag order; {coverage})"
