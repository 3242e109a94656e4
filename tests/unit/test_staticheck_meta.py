"""Meta-tests: the committed tree is violation-free, and the checker
actually guards the invariants the acceptance criteria name — deleting
any persist call, deleting a message's wire-layout row, or renaming a
gated trace counter must each turn the checker red."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticheck import run_paths
from tests.staticheck_helpers import rules_of

_SRC = Path(__file__).resolve().parents[2] / "src"
_PERSIST_LINE = re.compile(r"^\s*(?:self|proto)\._maybe_persist\(\)\s*$")


def test_committed_tree_is_violation_free():
    assert run_paths([str(_SRC)]) == []


def _persist_line_indexes() -> list[int]:
    lines = (_SRC / "repro/core/server.py").read_text().splitlines()
    return [i for i, line in enumerate(lines) if _PERSIST_LINE.match(line)]


def test_server_has_persist_calls_to_mutate():
    assert len(_persist_line_indexes()) >= 5


@pytest.mark.parametrize("index", range(len(_persist_line_indexes())))
def test_deleting_any_persist_call_is_caught(tmp_path, index):
    source = _SRC / "repro/core/server.py"
    lines = source.read_text().splitlines(keepends=True)
    del lines[_persist_line_indexes()[index]]
    mutated = tmp_path / "repro/core/server.py"
    mutated.parent.mkdir(parents=True)
    mutated.write_text("".join(lines))
    violations = run_paths([str(tmp_path)])
    assert "writeahead.persist-before-output" in rules_of(violations)


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
