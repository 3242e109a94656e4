"""Every function and class defined in ``src/`` is named by program code.

Program code is ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/``, read as code: the names, attributes and imports its
syntax trees mention, plus every string constant that is an identifier
(``perfbench/tracing.py`` patches methods by name).  A definition's own
body does not count (recursion is not a caller), and neither does an
``__init__.py`` re-export.  Dunder methods are called by the language.

The check is by name, not by binding: two definitions that share a name
keep each other alive.  That is coarse but cheap, and it errs towards
passing; what it catches is a helper whose name nothing mentions at
all.  The exceptions are :data:`UNCALLED`, one reason each, and the
list may only shrink (:data:`UNCALLED_MAX`).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_PROGRAM = ("src", "benchmarks", "examples", "perfbench")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``path:qualname`` -> why nothing in the program names it.
UNCALLED = {
    "repro/analysis/linearizability.py:check_register_history_slow":
        "the Wing-Gong reference the fast checker is tested against",
    "repro/transport/reliable.py:batch_wire_bytes":
        "the reference the batch-size property test holds the session to",
    "repro/runtime/asyncio_net.py:_Link.connection_made":
        "asyncio.Protocol callback, called by the event loop",
    "repro/runtime/asyncio_net.py:_Link.data_received":
        "asyncio.Protocol callback, called by the event loop",
    "repro/runtime/asyncio_net.py:_Link.pause_writing":
        "asyncio.Protocol callback, called by the event loop",
    "repro/runtime/asyncio_net.py:_Link.resume_writing":
        "asyncio.Protocol callback, called by the event loop",
    "repro/runtime/asyncio_net.py:_Link.connection_lost":
        "asyncio.Protocol callback, called by the event loop",
    "repro/transport/framing.py:FrameDecoder.pending_bytes":
        "observer the framing tests read",
    "repro/workload/generator.py:LoadDriver.logical_clients":
        "observer the workload tests read",
    "repro/core/fairness.py:FairScheduler.origins_queued":
        "observer the fairness tests read",
    "repro/core/fairness.py:FairScheduler.empty":
        "observer the fairness tests read",
    "repro/fd/heartbeat.py:ReadLease.expires_at":
        "observer the lease tests read",
    "repro/fd/heartbeat.py:HeartbeatTracker.add_peer":
        "membership edit the detector tests drive",
    "repro/fd/heartbeat.py:HeartbeatTracker.remove_peer":
        "membership edit the detector tests drive",
    "repro/core/ring.py:RingView.predecessor":
        "ring query the ring-view tests check against successor",
    "repro/core/tags.py:Tag.next_for":
        "tag constructor the tag-order tests use",
    "repro/sim/faults.py:FaultPlan.sequential":
        "fault-plan composition the fault-algebra tests use",
    "repro/sim/process.py:SimProcess.on_restart":
        "restart listener the fault tests observe restarts with",
    "repro/sim/env.py:SimEnv.run_until_idle":
        "how tests drive a bare simulated environment to quiescence",
    "repro/sim/rng.py:RngRegistry.fork":
        "stream derivation the seeding tests pin",
    "repro/runtime/sim_net.py:SimCluster.restart_server":
        "crash-recovery entry point the recovery tests drive",
    "repro/runtime/asyncio_net.py:AsyncCluster.restart_server":
        "crash-recovery entry point the asyncio recovery tests drive",
    "repro/analysis/history.py:Operation.overlaps":
        "interval predicate of the history model, tested on its own",
}

#: The allow-list's size: lower it when an entry goes, never raise it.
UNCALLED_MAX = 23


def _names(tree: ast.AST, reexport: bool) -> Counter:
    """Identifiers ``tree`` mentions as code.  In a re-exporting
    ``__init__.py`` imports and ``__all__`` strings are not uses."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif reexport:
            continue
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names[node.value] += 1
    return names


def _definitions(tree: ast.AST, prefix: str = ""):
    """``(qualname, node)`` of every function and class, nested ones
    included."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, _DEFINITIONS):
            qualname = prefix + child.name
            yield qualname, child
            yield from _definitions(child, qualname + ".")
        else:
            yield from _definitions(child, prefix)


def uncalled(sources: dict[str, str], defined_in: str = "src/") -> set[str]:
    """``path:qualname`` of each definition under ``defined_in`` whose
    name ``sources`` (relative path -> text) mention nowhere outside it."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used: Counter = Counter()
    for path, tree in trees.items():
        used.update(_names(tree, reexport=path.endswith("__init__.py")))
    found = set()
    for path, tree in trees.items():
        if not path.startswith(defined_in):
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] <= _names(node, reexport=False)[name]:
                found.add(f"{path[len(defined_in):]}:{qualname}")
    return found


def _program() -> dict[str, str]:
    return {
        path.relative_to(_ROOT).as_posix(): path.read_text()
        for root in _PROGRAM
        for path in sorted((_ROOT / root).rglob("*.py"))
    }


def test_every_definition_in_src_is_named_by_program_code():
    found = uncalled(_program())
    assert found - set(UNCALLED) == set(), "defined, never named: delete it"
    assert set(UNCALLED) - found == set(), "a stale allow-list entry: delete it"
    assert len(UNCALLED) <= UNCALLED_MAX, "the allow-list may only shrink"


def test_an_unnamed_helper_is_caught():
    sources = {
        "src/repro/m.py": (
            "def used():\n    return 1\n\n"
            "def helper(n):\n    return helper(n - 1) if n else used()\n\n"
            "class Box:\n    def size(self):\n        return 0\n"
            "    def __len__(self):\n        return 0\n"
        ),
        "src/repro/__init__.py": (
            "from repro.m import Box, helper\n__all__ = ['Box', 'helper']\n"
        ),
        "perfbench/patch.py": "NAMES = ('size',)\n",
    }
    assert uncalled(sources) == {"repro/m.py:helper", "repro/m.py:Box"}
