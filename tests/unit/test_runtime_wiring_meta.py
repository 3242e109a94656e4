"""Meta-tests: the server control plane is wired in exactly one place.

``repro/runtime/driver.py`` owns the heartbeat tracker, the read lease,
the reconcile / wait-out flags and the rejoin announcements for *every*
host (simulated, sharded, asyncio).  These tests read the source tree:
if a runtime grows its own copy of any of that wiring again, or the
driver starts importing a clock, an event loop or the simulator, or the
hosting code regrows past its budget, they fail at diff time.
"""

from __future__ import annotations

import ast
import io
import shutil
import tokenize
from pathlib import Path

from repro.staticheck import run_paths
from tests.staticheck_helpers import rules_of

_SRC = Path(__file__).resolve().parents[2] / "src"
_DRIVER = "repro/runtime/driver.py"

#: Name -> the modules that define (or re-export) it.  Only these and
#: the driver may mention the name in code.
_DRIVER_ONLY = {
    "HeartbeatTracker": {"repro/fd/heartbeat.py", "repro/fd/__init__.py"},
    "ReadLease": {"repro/fd/heartbeat.py"},
    "reconcile_due": {"repro/core/server.py"},
    "lease_waitout_due": {"repro/core/server.py"},
    "queue_rejoin_announce": {"repro/core/server.py"},
}

#: Logical lines of ``repro/runtime/`` + ``repro/core/sharded.py`` —
#: 2,568 before the driver existed; the extraction had to land at least
#: 200 below that, and the hosting code may not silently grow back.
_LINE_BUDGET = 2368


def _code_names(tree: ast.AST) -> set[str]:
    """Identifiers the code (not its docstrings or comments) mentions."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_control_plane_names_are_referenced_only_by_the_driver():
    offenders = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        mentioned = _code_names(ast.parse(path.read_text()))
        for name, definers in _DRIVER_ONLY.items():
            if name in mentioned and rel != _DRIVER and rel not in definers:
                offenders.append((rel, name))
    assert offenders == [], (
        "control-plane wiring outside repro/runtime/driver.py: " f"{offenders}"
    )
    driver_names = _code_names(ast.parse((_SRC / _DRIVER).read_text()))
    assert set(_DRIVER_ONLY) <= driver_names, "the driver no longer wires these"


def test_driver_is_sans_io():
    tree = ast.parse((_SRC / _DRIVER).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    for module in imported:
        top = module.split(".")[0]
        assert top not in {"asyncio", "time", "datetime", "random", "socket"}, module
        assert not module.startswith("repro.sim"), module
        assert module != "repro.runtime.sim_net" and module != "repro.runtime.asyncio_net"


def _logical_lines(path: Path) -> int:
    """Non-blank, non-comment, non-docstring lines."""
    source = path.read_text()
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skipped = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
    }
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def test_hosting_code_stays_within_its_line_budget():
    files = sorted((_SRC / "repro/runtime").glob("*.py"))
    files.append(_SRC / "repro/core/sharded.py")
    counts = {f.relative_to(_SRC).as_posix(): _logical_lines(f) for f in files}
    assert _DRIVER in counts
    assert sum(counts.values()) <= _LINE_BUDGET, counts


def _mutated_driver_tree(tmp_path: Path, extra: str) -> Path:
    shutil.copytree(_SRC / "repro", tmp_path / "repro")
    driver = tmp_path / _DRIVER
    driver.write_text(driver.read_text() + extra)
    return tmp_path


def test_determinism_rule_covers_the_driver(tmp_path):
    tree = _mutated_driver_tree(
        tmp_path, "\nimport time\n\ndef _wall():\n    return time.monotonic()\n"
    )
    assert "determinism.wall-clock" in rules_of(run_paths([str(tree)]))


def test_host_bypass_rule_covers_the_driver(tmp_path):
    tree = _mutated_driver_tree(
        tmp_path, "\ndef _poke(host):\n    host.proto.pending = {}\n"
    )
    assert "writeahead.host-bypass" in rules_of(run_paths([str(tree)]))
