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
diff time.  So do a clock or entropy read in the seeded code, a store
to snapshot-covered state from code that merely holds a protocol, and
an asyncio task nobody keeps.  Each of those checks is a function of
source text, and its mutation test hands it a mutated string.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

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
#: threaded through it, 1,278 with both membership protocols and 895
#: with a persist call in every handler; all of ``core/`` was 3,380, and
#: 3,372 with ``payload_size`` an ``isinstance`` chain — no seam may
#: cost code.  The sharded host moved out to ``repro/runtime/``, which
#: took ``core/`` from 3,315 to 2,691.
_SERVER_LINE_BUDGET = 881
_CORE_LINE_BUDGET = 2691

#: The wire format — the table and sizes, the compiler and its import
#: check — was 886 logical lines as four hand-kept tables and the lint
#: rule that cross-checked them, and 620 as one table, the compiler and
#: that rule.
_WIRE_FILES = ("repro/core/messages.py", "repro/transport/codec.py")
_WIRE_LINE_BUDGET = 387

#: Logical lines of ``repro/runtime/`` (the sharded host included) —
#: 2,568 before the driver existed; the extraction had to land at least
#: 200 below that, and the hosting code may not silently grow back.
#: ``asyncio_net.py`` on protocol callbacks is 563 lines, 26 below the
#: streams version it replaced.  One crash-recovery and one sponsor
#: rule for every simulated host took it from 2,339 to 2,305.
_LINE_BUDGET = 2305

#: Logical lines of ``repro/chaos/`` — 1,049 while each piece of batch
#: evidence was written four times (a result field, a counter read, a
#: CLI accumulator, a summary line or gate); one counter mapping and
#: one table of fragments and feature gates took it to 963.
_CHAOS_LINE_BUDGET = 963


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


#: Modules the protocol core may not import: it is sans-I/O, and the
#: hosts that put it on a network live in ``repro/runtime/``.
_CORE_MAY_NOT_IMPORT = (
    "repro.sim", "repro.runtime.sim_net", "repro.runtime.asyncio_net",
)  # fmt: skip


def _runtime_imports(text: str) -> list[str]:
    """Modules of :data:`_CORE_MAY_NOT_IMPORT` (or under them) that
    ``text`` imports, ``from repro.runtime import sim_net`` included."""
    imported = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted(
        module for module in imported for bad in _CORE_MAY_NOT_IMPORT
        if module == bad or module.startswith(f"{bad}.")
    )  # fmt: skip


def test_the_protocol_core_imports_no_simulator_and_no_socket_runtime():
    offenders = [
        (path.relative_to(_SRC).as_posix(), module)
        for path in sorted((_SRC / "repro/core").glob("*.py"))
        for module in _runtime_imports(path.read_text())
    ]  # fmt: skip
    assert offenders == [], f"core/ imports a runtime: {offenders}"
    server = (_SRC / "repro/core/server.py").read_text()
    flat = "\nimport repro.sim.events\n"
    assert _runtime_imports(server + flat) == ["repro.sim.events"]
    nested = "\ndef _host():\n    from repro.runtime import sim_net\n"
    assert _runtime_imports(server + nested) == ["repro.runtime.sim_net"]


#: Code that must replay bit-identically from a seed.
_SEEDED = (
    "repro/core/", "repro/sim/", "repro/transport/", "repro/fd/",
    "repro/chaos/", _DRIVER, "repro/runtime/sharded.py",
    "repro/bench/experiments.py",
)  # fmt: skip

#: (file, name) -> why that file may read the host.
_HOST_READS_ALLOWED = {
    ("repro/chaos/runner.py", "time.perf_counter"): (
        "wall_seconds is diagnostic reporting only; nothing simulated reads it"
    ),
}


def _host_reads(text: str) -> set[str]:
    """Clock and entropy names ``text`` imports or reads: anything of
    ``time``, ``datetime``, ``secrets``, ``uuid``, ``os.urandom``, and
    of ``random`` everything but the seeded ``random.Random``."""
    tree = ast.parse(text)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add(f"{modules[node.value.id]}.{node.attr}")
    return {
        name for name in names
        if name.split(".")[0] in {"time", "datetime", "secrets", "uuid"}
        or name == "os.urandom"
        or (name.startswith("random.") and name != "random.Random")
    }  # fmt: skip


def test_seeded_code_reads_no_clock_and_no_entropy():
    offenders, allowed = [], set()
    for path in sorted((_SRC / "repro").rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        if rel.startswith(_SEEDED):
            for name in sorted(_host_reads(path.read_text())):
                if (rel, name) in _HOST_READS_ALLOWED:
                    allowed.add((rel, name))
                else:
                    offenders.append((rel, name))
    assert offenders == [], f"seeded code reads the host: {offenders}"
    assert allowed == set(_HOST_READS_ALLOWED), "a stale allow-list entry"


def test_determinism_rule_covers_the_driver():
    driver = (_SRC / _DRIVER).read_text()
    wall = "\nimport time\n\ndef _wall():\n    return time.monotonic()\n"
    assert _host_reads(driver) == set()
    assert _host_reads(driver + wall) == {"time.monotonic"}
    rng = (_SRC / "repro/sim/rng.py").read_text()
    assert _host_reads(rng + "\n_JITTER = random.random()\n") == {"random.random"}


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
    counts = {f.relative_to(_SRC).as_posix(): _logical_lines(f) for f in files}
    assert _DRIVER in counts and "repro/runtime/sharded.py" in counts
    assert sum(counts.values()) <= _LINE_BUDGET, counts


def test_chaos_harness_stays_within_its_line_budget():
    counts = {
        f.relative_to(_SRC).as_posix(): _logical_lines(f)
        for f in sorted((_SRC / "repro/chaos").glob("*.py"))
    }
    assert "repro/chaos/runner.py" in counts and "repro/chaos/__main__.py" in counts
    assert sum(counts.values()) <= _CHAOS_LINE_BUDGET, counts


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


#: Attributes the write-ahead snapshot covers (``ServerSnapshot``).
_COVERED = {
    "value", "tag", "frag_tag", "ts_seen", "watermark", "completed_ops",
    "completed_tags", "pending", "installed_epoch", "_reconfig_counter", "ring",
}  # fmt: skip

#: Path prefix -> the attribute its code holds a protocol by.  Such
#: code changes covered state only through the protocol's methods,
#: which mark it dirty; a direct store would skip ``_mark_dirty()``.
_HOLDERS = {"repro/runtime/": "proto", _VALUES: "core", _VIEWS: "core"}


def _covered_stores(text: str, holder: str) -> list[str]:
    """Stores in ``text`` to a covered attribute through ``.holder.``."""
    stores = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _COVERED
                and f".{holder}." in f".{ast.unparse(target.value)}."
            ):
                stores.append(ast.unparse(target))
    return stores


def _holder_source(rel: str) -> tuple[str, str]:
    (holder,) = [name for scope, name in _HOLDERS.items() if rel.startswith(scope)]
    return (_SRC / rel).read_text(), holder


def test_protocol_holders_store_no_covered_state():
    offenders = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        if rel.startswith(tuple(_HOLDERS)):
            stores = _covered_stores(*_holder_source(rel))
            offenders += [(rel, store) for store in stores]
    assert offenders == [], f"covered state stored around the protocol: {offenders}"


def test_host_bypass_rule_covers_the_driver():
    text, holder = _holder_source(_DRIVER)
    poke = "\ndef _poke(host):\n    host.proto.pending = {}\n"
    assert _covered_stores(text + poke, holder) == ["host.proto.pending"]


def test_writeahead_rule_covers_the_value_backends():
    """A backend reaches the snapshot-covered register only through the
    protocol's own mutators; assigning it directly — which would skip
    ``_mark_dirty()``, so the next output would leave unsaved — is
    caught."""
    text, holder = _holder_source(_VALUES)
    poke = (
        "\n\ndef _poke(self, share):\n"
        "    self.core.value = share\n"
        "    self.core.frag_tag = None\n"
        "\n\nCodedValues._poke = _poke\n"
    )
    violations = _covered_stores(text + poke, holder)
    assert len(violations) == 2, "one per covered attribute assigned"


def test_writeahead_rule_covers_the_view_policies():
    """A policy reaches the snapshot-covered membership state only
    through the protocol's primitives (``_reroute``, ``_install_view``,
    ``_next_nonce``); assigning it directly is caught."""
    text, holder = _holder_source(_VIEWS)
    poke = (
        "\n\ndef _poke(self, ring):\n"
        "    self.core.ring = ring\n"
        "    self.core.installed_epoch = ring.epoch\n"
        "    self.core._reconfig_counter += 1\n"
        "\n\nQuorumViews._poke = _poke\n"
    )
    violations = _covered_stores(text + poke, holder)
    assert len(violations) == 3, "one per covered attribute assigned"


_ASYNCIO_NET = "repro/runtime/asyncio_net.py"


def _discarded_tasks(text: str) -> list[int]:
    """Lines whose ``create_task(...)`` result is thrown away: the loop
    holds a task only weakly, so it can be collected mid-flight."""
    return [
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and "create_task" in {getattr(node.value.func, a, None) for a in ("attr", "id")}
    ]  # fmt: skip


def test_every_task_the_asyncio_runtime_creates_is_kept():
    text = (_SRC / _ASYNCIO_NET).read_text()
    assert text.count("create_task(") == 2
    assert _discarded_tasks(text) == []
    orphan = "\n\ndef _spawn(self, coro):\n    self._loop.create_task(coro)\n"
    assert len(_discarded_tasks(text + orphan)) == 1
