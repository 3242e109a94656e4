"""Unit tests for the three atomicity checkers.

Each canonical history is checked against both value-based checkers
(which must agree) and, where tags exist, the tag checker.
"""

import pytest

from repro.analysis.history import History, Operation
from repro.analysis.linearizability import (
    check_register_history,
    check_register_history_slow,
    check_tagged_history,
)
from repro.core.tags import Tag
from repro.errors import HistoryError


def both(history, initial=b""):
    fast, _ = check_register_history(history, initial)
    slow, _ = check_register_history_slow(history, initial)
    assert fast == slow, "fast and slow checkers must agree"
    return fast


def test_empty_history_is_linearizable():
    assert both(History.of([]))


def test_sequential_write_then_read():
    assert both(History.of([
        Operation(1, "write", b"a", 0, 1),
        Operation(2, "read", b"a", 2, 3),
    ]))


def test_read_of_initial_value_before_write():
    assert both(History.of([
        Operation(1, "read", b"", 0, 1),
        Operation(2, "write", b"a", 2, 3),
    ]))


def test_read_of_initial_after_write_completed_is_violation():
    assert not both(History.of([
        Operation(1, "write", b"a", 0, 1),
        Operation(2, "read", b"", 2, 3),
    ]))


def test_read_inversion_detected():
    """The paper's motivating anomaly: new value then old value."""
    assert not both(History.of([
        Operation(1, "write", b"new", 0, 10),
        Operation(2, "read", b"new", 1, 2),
        Operation(3, "read", b"", 3, 4),
    ]))


def test_concurrent_reads_may_split_before_after():
    assert both(History.of([
        Operation(1, "write", b"new", 0, 10),
        Operation(2, "read", b"", 1, 2),
        Operation(3, "read", b"new", 3, 4),
    ]))


def test_value_from_nowhere_rejected():
    ok, reason = check_register_history(History.of([
        Operation(1, "read", b"ghost", 0, 1),
    ]))
    assert not ok and "never written" in reason


def test_read_from_the_future_rejected():
    assert not both(History.of([
        Operation(1, "read", b"a", 0, 1),
        Operation(2, "write", b"a", 2, 3),
    ]))


def test_open_write_may_or_may_not_take_effect():
    # Not read by anyone: fine either way.
    assert both(History.of([
        Operation(1, "write", b"a", 0, None),
        Operation(2, "read", b"", 1, 2),
    ]))
    # Read by someone: it must have taken effect before that read...
    assert both(History.of([
        Operation(1, "write", b"a", 0, None),
        Operation(2, "read", b"a", 1, 2),
    ]))
    # ...but then a later read of the initial value is an inversion.
    assert not both(History.of([
        Operation(1, "write", b"a", 0, None),
        Operation(2, "read", b"a", 1, 2),
        Operation(3, "read", b"", 3, 4),
    ]))


def test_two_writers_interleaved_reads():
    assert both(History.of([
        Operation(1, "write", b"a", 0, 5),
        Operation(2, "write", b"b", 1, 2),
        Operation(3, "read", b"b", 3, 4),
        Operation(4, "read", b"a", 6, 7),
    ]))


def test_sandwich_anomaly_detected():
    """A write taking effect twice around another write (what a retried
    write would do without the servers' duplicate filtering) is not
    linearizable."""
    assert not both(History.of([
        Operation(0, "write", b"v", 0.0, 9.0),
        Operation(1, "write", b"w", 2.0, 3.0),
        Operation(2, "read", b"v", 1.0, 1.5),
        Operation(3, "read", b"w", 3.5, 4.0),
        Operation(4, "read", b"v", 5.0, 6.0),
    ]))


def test_duplicate_written_values_rejected_by_contract():
    with pytest.raises(HistoryError):
        check_register_history(History.of([
            Operation(1, "write", b"a", 0, 1),
            Operation(2, "write", b"a", 2, 3),
        ]))


def _overlapping_writes(n: int, late_read: bytes) -> History:
    """``n`` writes, write ``i`` over ``[i, i + 2.5]``: each overlaps the
    next, so the fast checker sees one segment of ``n`` clusters.  One
    read after the last write completes returns ``late_read``."""
    ops = [Operation(i, "write", b"w%d" % i, i, i + 2.5) for i in range(n)]
    ops.append(Operation(n, "read", late_read, n + 0.6, n + 1.0))
    return History.of(ops)


def test_a_segment_of_a_thousand_clusters_fits_the_search():
    """The search over one segment used to recurse once per cluster, so
    a segment of ~1,000 overlapping values raised ``RecursionError``."""
    assert check_register_history(_overlapping_writes(1200, b"w1199"))[0]
    ok, reason = check_register_history(_overlapping_writes(1200, b""))
    assert not ok and "no valid sequencing" in reason


def test_slow_checker_guards_history_size():
    ops = [Operation(i, "write", bytes([i]), i, i + 1) for i in range(30)]
    with pytest.raises(HistoryError):
        check_register_history_slow(History.of(ops))


# ----------------------------------------------------------------------
# Tag-based checker
# ----------------------------------------------------------------------


def test_tagged_monotone_history_ok():
    history = History.of([
        Operation(1, "write", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "read", b"a", 2, 3, tag=Tag(1, 0)),
        Operation(3, "write", b"b", 4, 5, tag=Tag(2, 1)),
        Operation(4, "read", b"b", 6, 7, tag=Tag(2, 1)),
    ])
    ok, _ = check_tagged_history(history)
    assert ok


def test_tagged_inversion_detected():
    history = History.of([
        Operation(1, "read", b"b", 0, 1, tag=Tag(2, 0)),
        Operation(2, "read", b"a", 2, 3, tag=Tag(1, 0)),
    ])
    ok, reason = check_tagged_history(history)
    assert not ok and "observed" in reason


def test_tagged_value_mismatch_detected():
    history = History.of([
        Operation(1, "read", b"x", 0, 1, tag=Tag(1, 0)),
        Operation(2, "read", b"y", 2, 3, tag=Tag(1, 0)),
    ])
    ok, reason = check_tagged_history(history)
    assert not ok


def test_tagged_double_write_same_tag_detected():
    history = History.of([
        Operation(1, "write", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "write", b"b", 2, 3, tag=Tag(1, 0)),
    ])
    ok, reason = check_tagged_history(history)
    assert not ok and "two writes" in reason


def test_tagged_write_observed_before_it_started():
    history = History.of([
        Operation(1, "read", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "write", b"a", 2, 3, tag=Tag(1, 0)),
    ])
    ok, reason = check_tagged_history(history)
    assert not ok


def test_tagged_checker_reports_coverage_and_skips_untagged_by_default():
    history = History.of([
        Operation(1, "write", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "read", b"a", 2, 3),  # completed, never tagged
    ])
    ok, reason = check_tagged_history(history)
    assert ok, "untagged ops are skipped (and the check is vacuous for them)"
    assert "1/2" in reason


def test_tagged_checker_full_coverage_mode_rejects_untagged_completions():
    """The vacuous-pass hazard: a runtime that forgets to record tags
    must not check green.  require_full_coverage fails any completed
    untagged operation and names the coverage."""
    history = History.of([
        Operation(1, "write", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "read", b"a", 2, 3),
    ])
    ok, reason = check_tagged_history(history, require_full_coverage=True)
    assert not ok
    assert "coverage" in reason and "1/2" in reason


def test_tagged_checker_full_coverage_ignores_open_operations():
    """Open operations carry no response, so they owe no tag."""
    history = History.of([
        Operation(1, "write", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "write", b"b", 2, None),  # open: client never heard back
    ])
    ok, reason = check_tagged_history(history, require_full_coverage=True)
    assert ok, reason
    assert "1/1" in reason


def test_tagged_checker_full_coverage_passes_and_reports_on_clean_history():
    history = History.of([
        Operation(1, "write", b"a", 0, 1, tag=Tag(1, 0)),
        Operation(2, "read", b"a", 2, 3, tag=Tag(1, 0)),
    ])
    ok, reason = check_tagged_history(history, require_full_coverage=True)
    assert ok and "2/2" in reason
