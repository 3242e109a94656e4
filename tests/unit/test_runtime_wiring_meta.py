"""Meta-tests: the server control plane is wired in exactly one place,
and the stored value and the ring's membership have exactly one owner
each.

``repro/runtime/driver.py`` owns the heartbeat tracker, the read lease,
the reconcile / wait-out flags and the rejoin announcements for *every*
host (simulated, sharded, asyncio); ``repro/core/values.py`` owns
everything that depends on how a value is laid out across the ring;
``repro/core/views.py`` owns every membership decision — suspicion,
promises, stale-epoch fencing, leases and their fences;
``WIRE_LAYOUT`` in ``repro/core/messages.py`` owns the wire format, with
no per-type function or second table beside it.  These tests
read the source tree: if a runtime grows its own copy of any of that
wiring again, or the driver starts importing a clock, an event loop or
the simulator, or fragment or promise bookkeeping leaks back into the
protocol core, or either side regrows past its budget, they fail at
diff time.
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
    "reconcile_due": {"repro/core/server.py", "repro/core/views.py"},
    "lease_waitout_due": {"repro/core/server.py", "repro/core/views.py"},
    "queue_rejoin_announce": {"repro/core/server.py"},
}

_VALUES = "repro/core/values.py"

#: Name -> its definers.  Only these and the value backends may mention
#: the name in code: the protocol core never looks inside a value.
_VALUES_ONLY = {
    "_coded": set(),
    "_frag_stash": set(),
    "_parked_prewrites": set(),
    "_recon": set(),
    "pack_fragments": {"repro/core/coding.py"},
    "unpack_fragments": {"repro/core/coding.py"},
}

#: Messages only a backend (or the wire codec that defines their bytes)
#: may *construct*; the core still names them to route them.
_VALUES_ONLY_CALLS = {
    "FragmentFetch": {"repro/transport/codec.py"},
    "FragmentReply": {"repro/transport/codec.py"},
}

_VIEWS = "repro/core/views.py"

#: Suspicion, promise, lease and fence state: named only by the view
#: policies.  The protocol core merges state; it never arbitrates views.
_VIEWS_ONLY = {
    "_promise",
    "_attempt_nonce",
    "_suspicion_paused",
    "_announced_rejoiners",
    "_stale_notified",
    "_fence_waiters",
    "_waitout_commit_tags",
    "lease_valid",
    "lease_epoch",
}

#: The configuration switches the two seams are chosen by — once, by
#: ``view_policy`` and the policies' constructors, never in the core.
_POLICY_SWITCHES = {"view_quorum", "read_leases"}

#: Logical lines: ``core/server.py`` was 1,581 with the coded backend
#: threaded through it and 1,278 with both membership protocols; all of
#: ``core/`` was 3,380, and 3,372 with ``payload_size`` an ``isinstance``
#: chain — no seam may cost code.
_SERVER_LINE_BUDGET = 900
_CORE_LINE_BUDGET = 3360

#: The wire format's three files — the table and sizes, the compiler,
#: the lint rule — were 886 logical lines as four hand-kept tables and
#: the rule that cross-checked them.
_WIRE_FILES = (
    "repro/core/messages.py",
    "repro/transport/codec.py",
    "repro/staticheck/codec_check.py",
)
_WIRE_LINE_BUDGET = 620

#: Logical lines of ``repro/runtime/`` + ``repro/core/sharded.py`` —
#: 2,568 before the driver existed; the extraction had to land at least
#: 200 below that, and the hosting code may not silently grow back.
#: ``asyncio_net.py`` on protocol callbacks is 563 lines, 26 below the
#: streams version it replaced.
_LINE_BUDGET = 2342


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


def _called_names(tree: ast.AST) -> set[str]:
    called: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(
                func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            )
    return called


def test_value_layout_is_known_only_to_the_value_backends():
    offenders = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        if rel == _VALUES:
            continue
        tree = ast.parse(path.read_text())
        mentioned, called = _code_names(tree), _called_names(tree)
        offenders += [
            (rel, name) for name, definers in _VALUES_ONLY.items()
            if name in mentioned and rel not in definers
        ]
        offenders += [
            (rel, name) for name, definers in _VALUES_ONLY_CALLS.items()
            if name in called and rel not in definers
        ]
    assert offenders == [], f"value layout outside {_VALUES}: {offenders}"
    backend = ast.parse((_SRC / _VALUES).read_text())
    assert set(_VALUES_ONLY) - {"_coded"} <= _code_names(backend)
    assert set(_VALUES_ONLY_CALLS) <= _called_names(backend)
    server = (_SRC / "repro/core/server.py").read_text()
    assert "coding" not in _code_names(ast.parse(server)), (
        "the protocol core must not reach repro.core.coding"
    )


def test_view_state_is_known_only_to_the_view_policies():
    offenders = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        if rel != _VIEWS:
            mentioned = _code_names(ast.parse(path.read_text()))
            offenders += [(rel, name) for name in sorted(_VIEWS_ONLY & mentioned)]
    assert offenders == [], f"view state outside {_VIEWS}: {offenders}"
    assert _VIEWS_ONLY <= _code_names(ast.parse((_SRC / _VIEWS).read_text()))
    server = _code_names(ast.parse((_SRC / "repro/core/server.py").read_text()))
    assert not _POLICY_SWITCHES & server, (
        "the protocol core must not branch on the membership mode"
    )


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


def test_protocol_core_stays_within_its_line_budget():
    counts = {
        f.relative_to(_SRC).as_posix(): _logical_lines(f)
        for f in sorted((_SRC / "repro/core").glob("*.py"))
    }
    assert _VALUES in counts and _VIEWS in counts
    assert counts["repro/core/server.py"] <= _SERVER_LINE_BUDGET, counts
    assert sum(counts.values()) <= _CORE_LINE_BUDGET, counts


def test_the_layout_table_has_nothing_beside_it():
    codec = ast.parse((_SRC / "repro/transport/codec.py").read_text())
    per_type = [
        node.name for node in ast.walk(codec)
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("_encode_", "_decode_"))
    ]  # fmt: skip
    assert per_type == [], "encoders and decoders are compiled from WIRE_LAYOUT"
    assert not {"_TYPE_CODES", "_ENCODERS", "_DECODERS"} & _code_names(codec)
    messages = ast.parse((_SRC / "repro/core/messages.py").read_text())
    (sizer,) = [
        node for node in messages.body
        if isinstance(node, ast.FunctionDef) and node.name == "payload_size"
    ]  # fmt: skip
    assert "isinstance" not in _code_names(sizer), "sizes dispatch on the type"
    counts = {rel: _logical_lines(_SRC / rel) for rel in _WIRE_FILES}
    assert sum(counts.values()) <= _WIRE_LINE_BUDGET, counts


def _mutated_tree(tmp_path: Path, rel: str, extra: str) -> Path:
    shutil.copytree(_SRC / "repro", tmp_path / "repro")
    target = tmp_path / rel
    target.write_text(target.read_text() + extra)
    return tmp_path


def test_determinism_rule_covers_the_driver(tmp_path):
    tree = _mutated_tree(
        tmp_path, _DRIVER, "\nimport time\n\ndef _wall():\n    return time.monotonic()\n"
    )
    assert "determinism.wall-clock" in rules_of(run_paths([str(tree)]))


def test_host_bypass_rule_covers_the_driver(tmp_path):
    tree = _mutated_tree(
        tmp_path, _DRIVER, "\ndef _poke(host):\n    host.proto.pending = {}\n"
    )
    assert "writeahead.host-bypass" in rules_of(run_paths([str(tree)]))


def test_writeahead_rule_covers_the_value_backends(tmp_path):
    """A backend reaches the snapshot-covered register only through the
    protocol's own mutators; assigning it directly — which would skip
    ``_mark_dirty()`` and the class the fixpoint analyses — is caught."""
    tree = _mutated_tree(
        tmp_path, _VALUES,
        "\n\ndef _poke(self, share):\n"
        "    self.core.value = share\n"
        "    self.core.frag_tag = None\n"
        "\n\nCodedValues._poke = _poke\n",
    )
    violations = run_paths([str(tree)])
    assert rules_of(violations) == ["writeahead.host-bypass"]
    assert len(violations) == 2, "one per covered attribute assigned"
    assert {v.path for v in violations} == {_VALUES}


def test_writeahead_rule_covers_the_view_policies(tmp_path):
    """A policy reaches the snapshot-covered membership state only
    through the protocol's primitives (``_reroute``, ``_install_view``,
    ``_next_nonce``); assigning it directly is caught."""
    tree = _mutated_tree(
        tmp_path, _VIEWS,
        "\n\ndef _poke(self, ring):\n"
        "    self.core.ring = ring\n"
        "    self.core.installed_epoch = ring.epoch\n"
        "    self.core._reconfig_counter += 1\n"
        "\n\nQuorumViews._poke = _poke\n",
    )
    violations = run_paths([str(tree)])
    assert rules_of(violations) == ["writeahead.host-bypass"]
    assert len(violations) == 3, "one per covered attribute assigned"
    assert {v.path for v in violations} == {_VIEWS}
