"""Every reference the source and the docs make resolves.

Two facts, both over text:

* every repo path that ``src/`` or ``docs/`` names — a ``docs/``,
  ``tests/``, ``perfbench/``, ``benchmarks/`` or ``examples/`` path, or
  a top-level ``*.md`` file — exists;
* every ``:meth:``, ``:func:``, ``:class:`` or ``:attr:`` target in
  ``src/`` names something ``src/`` defines.

A file that was deleted or a method that was renamed leaves its old
name behind in prose; these checks find it.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_SRC = _ROOT / "src"

_PATH = re.compile(
    r"(?<![\w/.-])((?:docs|tests|perfbench|benchmarks|examples)/[\w./-]*[\w/])"
)
_TOP_MD = re.compile(r"(?<![\w/.-])([A-Z][A-Z_]*\.md)\b")
_ROLE = re.compile(r":(?:meth|func|class|attr):`~?([\w.]+)`")

#: Standard-library modules whose names role targets may use.
_STDLIB = {"random"}


def _texts() -> list[tuple[str, str]]:
    files = [*sorted(_SRC.rglob("*.py")), *sorted((_ROOT / "docs").glob("*.md"))]
    return [(f.relative_to(_ROOT).as_posix(), f.read_text()) for f in files]


def named_paths(text: str) -> set[str]:
    """Repo paths ``text`` names: relative paths and top-level docs."""
    paths = {match.rstrip(".") for match in _PATH.findall(text)}
    return paths | set(_TOP_MD.findall(text))


def missing_paths(texts) -> list[tuple[str, str]]:
    return sorted(
        (where, path)
        for where, text in texts
        for path in named_paths(text)
        if not (_ROOT / path).exists()
    )


@lru_cache(maxsize=None)
def _definitions() -> dict[str, set[str]]:
    """Names each ``repro`` module binds at top level, and under the
    key ``""`` every name any module defines: functions, classes,
    class-level assignments and attributes stored through ``self``."""
    found: dict[str, set[str]] = {"": set()}
    for path in sorted(_SRC.rglob("*.py")):
        parts = path.relative_to(_SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text())
        top = found.setdefault(module, set())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top.update(t.id for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                top.update((a.asname or a.name).split(".")[0] for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found[""].add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                found[""].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                found[""].add(node.attr)
        found[""].update(top)
    return found


def resolves(target: str) -> bool:
    """A ``repro.`` target names a module and something it binds at top
    level; any other target's last part is a name ``src/`` defines."""
    parts = target.split(".")
    if parts[0] in _STDLIB:
        return True
    defined = _definitions()
    if parts[0] != "repro":
        return parts[-1] in defined[""]
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        if module in defined:
            return cut == len(parts) or parts[cut] in defined[module]
    return False


def unresolved_roles(texts) -> list[tuple[str, str]]:
    return sorted(
        (where, target)
        for where, text in texts
        if where.startswith("src/")
        for target in _ROLE.findall(text)
        if not resolves(target)
    )


def test_every_path_the_source_and_docs_name_exists():
    assert missing_paths(_texts()) == []


def test_every_role_target_in_the_source_is_defined():
    assert unresolved_roles(_texts()) == []


def test_a_deleted_file_or_a_renamed_method_is_caught():
    text = (
        "see DESIGN.md and docs/nosuch.md; docs/perf.md stays.\n"
        ":meth:`_process_commit` moved; :meth:`_process_commits` is real;\n"
        ":class:`~repro.core.views.QuorumViews`, :func:`repro.core.nosuch`.\n"
    )
    texts = [("src/repro/x.py", text)]
    assert missing_paths(texts) == [
        ("src/repro/x.py", "DESIGN.md"), ("src/repro/x.py", "docs/nosuch.md"),
    ]  # fmt: skip
    assert unresolved_roles(texts) == [
        ("src/repro/x.py", "_process_commit"),
        ("src/repro/x.py", "repro.core.nosuch"),
    ]
