"""Write-ahead, checked where it matters: at every output.

The crash-recovery contract (:mod:`repro.core.durable`) is that nothing
leaves a :class:`~repro.core.server.ServerProtocol` until the state
behind it is in the write-ahead snapshot.  The protocol keeps it by
construction — outputs leave only through ``drain_replies``,
``next_directed_message`` and ``next_ring_batch``, and each of them
saves a dirty state first — and this module checks the property itself:
after every non-empty output of a protocol that has a store, the last
saved snapshot equals ``proto.snapshot()``.  A restart at that instant
would come back with exactly the live covered state.  A protocol that
has never saved is compared against its initial state, which is what
``ServerProtocol.restore(..., None, ...)`` rebuilds.

The check runs over fixed seeds of every chaos profile.  What it
catches that a static reading cannot: a mutation that forgets a dirty
mark (``self._dirty = True``) leaves ``_dirty`` false,
``_maybe_persist()`` skips the save, and the next output leaves ahead
of its state.  The
meta-tests here delete each save on an output path, and each dirty mark,
in a copy of the tree and watch this check or the structural test go
red.

Run as a script (``python tests/integration/test_write_ahead.py
[profile ...]``) it checks the corpus of the named profiles against the
``repro`` on ``PYTHONPATH`` and exits non-zero at the first mismatch;
``--structure`` runs the structural test instead.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import sys
import weakref
from pathlib import Path

import pytest

from repro.chaos import generate_schedule, run_schedule
from repro.chaos.schedule import PROFILES
from repro.core.server import ServerProtocol

#: Schedules per profile, all at seed 0.  Cheap profiles first: a red
#: run stops at its first mismatch, so the meta-tests pay for the
#: expensive sharded profiles only when nothing earlier caught them.
CORPUS = {
    "core": 5,
    "gentle": 3,
    "partition": 5,
    "lease": 5,
    "coded": 5,
    "skew": 2,
    "scale": 1,
}
_SHARDED = ("scale", "skew")


class Mismatch(AssertionError):
    """An output left while the saved snapshot trailed the live state."""


@contextlib.contextmanager
def saved_equals_live():
    """Patch the three output methods to check every non-empty output;
    yields a counter of outputs checked."""
    checked = [0]
    initial_values: "weakref.WeakKeyDictionary[ServerProtocol, bytes]" = (
        weakref.WeakKeyDictionary()
    )
    initial_snapshots: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    originals = {
        name: getattr(ServerProtocol, name)
        for name in (
            "__init__", "drain_replies", "next_directed_message", "next_ring_batch"
        )
    }  # fmt: skip

    def init(self, server_id, ring, config=None, initial_value=b"", durable=None):
        originals["__init__"](self, server_id, ring, config, initial_value, durable)
        initial_values[self] = initial_value

    def expected(proto):
        saved = proto.durable.load()
        if saved is not None:
            return saved
        if proto not in initial_snapshots:
            initial_snapshots[proto] = ServerProtocol.restore(
                proto.server_id, proto.ring.members, None, proto.config,
                initial_value=initial_values[proto],
            ).snapshot()  # fmt: skip
        return initial_snapshots[proto]

    def checking(name):
        original = originals[name]

        def output(self, *args):
            result = original(self, *args)
            if result and self.durable is not None:
                checked[0] += 1
                live, saved = self.snapshot(), expected(self)
                if live != saved:
                    raise Mismatch(
                        f"server {self.server_id}: {name}() released "
                        f"{result!r} ahead of its state\n saved: {saved}\n"
                        f"  live: {live}"
                    )
            return result

        return output

    ServerProtocol.__init__ = init
    for name in ("drain_replies", "next_directed_message", "next_ring_batch"):
        setattr(ServerProtocol, name, checking(name))
    try:
        yield checked
    finally:
        for name, original in originals.items():
            setattr(ServerProtocol, name, original)


def check_profile(profile: str, runs: int) -> int:
    """Run ``runs`` seed-0 schedules of ``profile`` under the check;
    returns the number of outputs checked."""
    protocol = "sharded" if profile in _SHARDED else "core"
    with saved_equals_live() as checked:
        for index in range(runs):
            result = run_schedule(
                generate_schedule(0, index, 4, PROFILES[profile]), protocol
            )
            assert result.ok, result.describe()
    return checked[0]


def test_the_corpus_covers_every_chaos_profile():
    assert sorted(CORPUS) == sorted(PROFILES)


@pytest.mark.parametrize("profile", sorted(CORPUS))
def test_saved_snapshot_equals_live_state_after_every_output(profile):
    assert check_profile(profile, CORPUS[profile]) > 0


def test_outputs_leave_only_through_three_persisting_methods():
    """The construction the dynamic check relies on: exactly five saves
    in the class — the three output methods, and the two constructors
    whose result is itself a visible step (a restart, a migration
    cutover) — every entry point ends in the persisting drain, and the
    one-message ring pull is the batch pull."""
    methods = {
        node.name: node
        for node in ast.parse(inspect.getsource(ServerProtocol)).body[0].body
        if isinstance(node, ast.FunctionDef)
    }

    def persists(node) -> int:
        return sum(
            isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "_maybe_persist"
            for call in ast.walk(node)
        )

    savers = {name for name, node in methods.items() if persists(node)}
    assert sum(persists(node) for node in methods.values()) == 5
    assert savers == {
        "drain_replies", "next_directed_message", "next_ring_batch",
        "restore", "from_transfer",
    }  # fmt: skip
    for name in (
        "on_client_message", "on_ring_message", "on_server_crash",
        "on_suspect", "on_unsuspect", "propose_reconfig", "on_lease_update",
        "lease_waitout_elapsed", "complete_rejoin_alone",
    ):  # fmt: skip
        last = ast.unparse(methods[name].body[-1])
        assert last == "return self.drain_replies()", name
    pull = ast.unparse(methods["next_ring_message"])
    assert "self.next_ring_batch(1)" in pull, "next_ring_message"


# ----------------------------------------------------------------------
# Meta-tests: break the write-ahead construction in a copy of the tree.
# Each save on an output path goes, then each dirty mark, which no
# static reading of the saves can see.
# ----------------------------------------------------------------------

_SRC = Path(__file__).resolve().parents[2] / "src"
_PERSIST = "_maybe_persist()"
_DRAIN = "return self.drain_replies()"
_UNSAVED_DRAIN = ("replies, self._replies = self._replies, []", "return replies")

#: Every save an output of ``ServerProtocol`` depends on, as (method,
#: line in it, lines that replace it, the check that must go red).  The
#: first thirteen are the thirteen persist calls the server once had, in
#: source order; an entry point's save is now its closing drain, and
#: ``next_ring_message``'s is the batch pull it delegates to.  The
#: structural test guards what no run can observe: restarts and
#: cutovers only repeat what the first output saves, an entry point
#: that skips the drain skips the patched method too, and every entry
#: point drains before a host pulls a directed message.
_SAVES = [
    ("restore", f"proto.{_PERSIST}", (), "--structure"),
    ("from_transfer", f"proto.{_PERSIST}", (), "--structure"),
    *(
        (entry, _DRAIN, _UNSAVED_DRAIN, "--structure")
        for entry in (
            "complete_rejoin_alone", "on_client_message", "on_ring_message",
            "on_server_crash", "on_suspect", "on_unsuspect", "propose_reconfig",
            "on_lease_update", "lease_waitout_elapsed",
        )
    ),  # fmt: skip
    (
        "next_ring_message",
        "batch = self.next_ring_batch(1)",
        (
            "message = self._next_ring_message()",
            "batch = [message] if message is not None else []",
        ),
        "--structure",
    ),
    ("next_ring_batch", f"self.{_PERSIST}", (), None),
    ("drain_replies", f"self.{_PERSIST}", (), None),
    ("next_directed_message", f"self.{_PERSIST}", (), "--structure"),
]


def _server_methods(text: str) -> dict[str, ast.FunctionDef]:
    (cls,) = (
        node
        for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef) and node.name == "ServerProtocol"
    )
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


def _replace_in_method(text: str, method: str, old: str, new: tuple) -> str:
    """Replace the one line of ``method`` that reads ``old``."""
    node = _server_methods(text)[method]
    lines = text.splitlines(keepends=True)
    (index,) = (
        i
        for i in range(node.lineno - 1, node.end_lineno)
        if lines[i].strip() == old
    )
    indent = lines[index][: len(lines[index]) - len(lines[index].lstrip())]
    lines[index : index + 1] = [f"{indent}{line}\n" for line in new]
    return "".join(lines)


def test_server_has_persist_calls_to_mutate():
    """Every ``_maybe_persist()`` in the server is a site below."""
    text = (_SRC / "repro/core/server.py").read_text()
    persisting = sorted(
        name
        for name, node in _server_methods(text).items()
        for line in ast.unparse(node).splitlines()
        if line.strip().endswith(_PERSIST)
    )
    assert len(persisting) >= 5
    assert persisting == sorted(m for m, old, _, _ in _SAVES if old.endswith(_PERSIST))


@pytest.mark.parametrize("index", range(len(_SAVES)))
def test_deleting_any_persist_call_is_caught(tmp_path, index):
    # Imported here: the script mode runs without ``tests`` on the path.
    from tests.helpers import run_write_ahead_check

    method, old, new, mode = _SAVES[index]
    done = run_write_ahead_check(
        tmp_path,
        lambda text: _replace_in_method(text, method, old, new),
        *([mode] if mode else []),
    )
    assert done.returncode != 0
    if mode:
        assert "AssertionError" in done.stderr
    else:
        assert "Mismatch" in done.stderr and "ahead of its state" in done.stderr


#: (id, exact source text in core/server.py, replacement); each text
#: occurs exactly once.
_MARK_DELETIONS = [
    (
        "forward-mark",
        "            self.stats_forwards += 1\n            self._dirty = True\n",
        "            self.stats_forwards += 1\n",
    ),
    (
        "commit-point-mark",
        "            self._dirty = True  # commit point: watermark and pending change\n",
        "",
    ),
    (
        "reroute-mark",
        "        self.ring = ring\n        self._dirty = True\n",
        "        self.ring = ring\n",
    ),
    (
        "note-tag-mark",
        "        if ts > self.ts_seen:\n            self.ts_seen = ts\n"
        "            self._dirty = True\n",
        "        if ts > self.ts_seen:\n            self.ts_seen = ts\n",
    ),
]


@pytest.mark.parametrize(
    "old,new",
    [m[1:] for m in _MARK_DELETIONS],
    ids=[m[0] for m in _MARK_DELETIONS],
)
def test_breaking_the_construction_turns_the_check_red(tmp_path, old, new):
    # Imported here: the script mode runs without ``tests`` on the path.
    from tests.helpers import run_write_ahead_check

    def edit(text: str) -> str:
        assert text.count(old) == 1, "the mutation site moved"
        return text.replace(old, new)

    done = run_write_ahead_check(tmp_path, edit)
    assert done.returncode != 0
    assert "Mismatch" in done.stderr and "ahead of its state" in done.stderr


if __name__ == "__main__":
    if sys.argv[1:] == ["--structure"]:
        test_outputs_leave_only_through_three_persisting_methods()
    else:
        for name in sys.argv[1:] or list(CORPUS):
            print(name, check_profile(name, CORPUS[name]), flush=True)
