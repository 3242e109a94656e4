"""Meta-tests: the committed tree is violation-free, and the checks
actually guard the invariants the acceptance criteria name — deleting a
message's wire-layout row or renaming a gated trace counter must each
turn the checker red, and deleting any write-ahead save on an output
path must turn the write-ahead check red.  Write-ahead is guarded by
construction and by ``tests/integration/test_write_ahead.py``, not by
this checker."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticheck import run_paths
from repro.staticheck.__main__ import main
from tests.helpers import run_write_ahead_check
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
    static finding; only the host-bypass half of the family is left."""
    assert main(["--list-rules"]) == 0
    assert "persist-before-output" not in capsys.readouterr().out
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


def test_unregistering_codec_entry_is_caught(tmp_path):
    """Deleting a message's ``WIRE_LAYOUT`` row fails the lint rule and,
    without the linter, the import of the codec itself."""
    shutil.copytree(_SRC / "repro", tmp_path / "repro")
    messages = tmp_path / "repro/core/messages.py"
    text = messages.read_text()
    row = re.search(r"^    Commit: \(6, .*\n", text, re.MULTILINE)
    assert row is not None
    messages.write_text(text.replace(row.group(0), ""))
    violations = run_paths([str(tmp_path)])
    assert rules_of(violations) == ["codec.layout"]
    assert "Commit has 0 WIRE_LAYOUT rows" in violations[0].message
    imported = subprocess.run(
        [sys.executable, "-c", "import repro.transport.codec"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        stderr=subprocess.PIPE, text=True,
    )  # fmt: skip
    assert imported.returncode != 0
    assert "one row per message class" in imported.stderr


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
