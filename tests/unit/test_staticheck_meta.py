"""Meta-tests: the committed tree is violation-free, and the checks
actually guard the invariants the acceptance criteria name — renaming a
gated trace counter must turn the checker red, deleting a message's
wire-layout row, an epoch stamp or a fragment message's place in the
ring union must fail the codec's import, and deleting any write-ahead
save on an output path must turn the write-ahead check red.  Write-ahead
is guarded by construction and by ``tests/integration/test_write_ahead.py``,
the wire format by ``repro.transport.codec.check_catalogue``, not by this
checker."""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

from repro.staticheck import run_paths
from repro.staticheck.__main__ import main
from tests.helpers import run_mutated, run_write_ahead_check
from tests.staticheck_helpers import rules_of

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


def test_committed_tree_is_violation_free():
    assert run_paths([str(_SRC)]) == []


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


def test_persist_before_output_rule_is_gone(tmp_path, capsys):
    """A protocol class that returns with unsaved state is no longer a
    static finding; only the host-bypass half of the family is left.
    The wire format is checked where its bytes are made, by the codec's
    import, so no ``codec.*`` rule is listed either."""
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out.split()
    assert "writeahead" in listed and "persist-before-output" not in listed
    assert not [family for family in listed if family.startswith("codec")]
    durable = tmp_path / "repro/core/proto.py"
    durable.parent.mkdir(parents=True)
    durable.write_text(
        "class Proto:\n"
        "    def _maybe_persist(self):\n"
        "        pass\n"
        "\n"
        "    def on_write(self, value):\n"
        "        self.value = value\n"
        "        return [value]\n"
    )
    assert run_paths([str(tmp_path)]) == []


def _import_codec_after(tmp_path, *replacements: tuple[str, str]) -> str:
    """The last stderr line of importing the codec from a copy of the
    tree whose ``core/messages.py`` has each ``(old, new)`` replaced."""

    def edit(text: str) -> str:
        for old, new in replacements:
            assert text.count(old) == 1, "the mutation site moved"
            text = text.replace(old, new)
        return text

    done = run_mutated(
        tmp_path, "core/messages.py", edit, "-c", "import repro.transport.codec"
    )
    assert done.returncode != 0
    return done.stderr.strip().splitlines()[-1]


def test_unregistering_codec_entry_is_caught(tmp_path):
    """Deleting a message's ``WIRE_LAYOUT`` row fails the codec import."""
    error = _import_codec_after(
        tmp_path, ('    Commit: (6, (("epoch", "i64"), ("commits", "tags_to_end"))),\n', "")
    )
    assert "one row per message class: Commit" in error


def test_ring_message_without_epoch_is_caught(tmp_path):
    """A ring message without the epoch stamp fails the codec import."""
    error = _import_codec_after(
        tmp_path,
        ("    origin: int\n    epoch: int = 0\n", "    origin: int\n"),
        ('("origin", "i32"), ("epoch", "i64")', '("origin", "i32")'),
    )
    assert "ring message ReadFence has no epoch field" in error


def test_fragment_message_outside_the_ring_union_is_caught(tmp_path):
    """A fragment message dropped from ``RingMessage`` — it would skip
    the epoch guard and the server's ring dispatch — fails the codec
    import; ``test_staticheck_codec.py`` pins every fragment message in
    the union."""
    error = _import_codec_after(tmp_path, ("    FragmentReply,\n]", "]"))
    assert "one row per message class: FragmentReply" in error


def test_renaming_gated_counter_emit_site_is_caught(tmp_path):
    shutil.copytree(_SRC / "repro", tmp_path / "repro")
    sim_net = tmp_path / "repro/runtime/sim_net.py"
    text = sim_net.read_text()
    assert "count(FD_WRONG_SUSPICIONS)" in text
    sim_net.write_text(
        text.replace('count(FD_WRONG_SUSPICIONS)', 'count("fd.wrong_suspicionz")')
    )
    violations = run_paths([str(tmp_path)])
    rules = rules_of(violations)
    # The typo'd emit site is unregistered, and the chaos gate now
    # consumes a counter nothing emits — both fire.
    assert "counters.unregistered" in rules
    assert "counters.consumed-not-emitted" in rules
