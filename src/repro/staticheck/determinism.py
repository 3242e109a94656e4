"""determinism.* — seed => byte-identical traces is a source invariant.

The chaos gate, the BENCH regression gate, and failing-schedule replay
all assume that a (seed, schedule) pair reproduces bit-identically.
Anything that samples the environment — wall clock, process-global RNG,
hash-randomised set order — breaks that silently.  Three checks, scoped
to the deterministic core (``repro/core``, ``repro/sim``,
``repro/transport``, ``repro/chaos``, ``repro/fd``,
``repro/runtime/driver.py`` — the control plane both runtimes host, which
must stay clock- and RNG-free to be hostable by the simulator — and
``repro/bench/experiments.py``):

* ``determinism.wall-clock`` — calls that read host time;
* ``determinism.global-rng`` — draws from the process-global ``random``
  module (seeded ``random.Random`` instances are the approved idiom),
  ``os.urandom``/``secrets``/``uuid`` entropy;
* ``determinism.unordered-iter`` — iterating a set/frozenset (or a dict
  comprehension keyed off one) where the order can escape: ``for``
  statements, list/generator comprehensions not wrapped in an
  order-insensitive reducer.  Iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.staticheck.base import (
    ImportMap,
    Project,
    SourceFile,
    Violation,
    build_parents,
    file_rule,
)

_SCOPES = (
    "repro/core/",
    "repro/sim/",
    "repro/transport/",
    "repro/chaos/",
    "repro/fd/",
    "repro/runtime/driver.py",
    "repro/bench/experiments.py",
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level functions of :mod:`random` that draw from the global
#: stream.  ``random.Random(seed)`` instantiation is the approved idiom
#: and is deliberately absent.
_GLOBAL_RNG_FNS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"})

#: Calls whose result is order-insensitive, so feeding them a set
#: iteration cannot leak set order into the trace.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)


def _applies(rel: str) -> bool:
    return any(rel.startswith(scope) for scope in _SCOPES)


@file_rule("determinism")
def check(sf: SourceFile, project: Project) -> list[Violation]:
    if sf.tree is None or not _applies(sf.rel):
        return []
    imports = ImportMap(sf.tree)
    parents = build_parents(sf.tree)
    out: list[Violation] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Call):
            out.extend(_check_call(sf, imports, node))
    out.extend(_check_unordered(sf, parents))
    return out


def _check_call(
    sf: SourceFile, imports: ImportMap, node: ast.Call
) -> list[Violation]:
    qualified = imports.resolve(node.func)
    if qualified is None:
        return []
    if qualified in _WALL_CLOCK:
        return [
            Violation(
                sf.rel,
                node.lineno,
                node.col_offset,
                "determinism.wall-clock",
                f"{qualified}() reads host time inside the deterministic "
                "core; take time from the simulation clock (env.now)",
            )
        ]
    if qualified in _ENTROPY or qualified.startswith("secrets."):
        return [
            Violation(
                sf.rel,
                node.lineno,
                node.col_offset,
                "determinism.global-rng",
                f"{qualified}() is nondeterministic entropy; derive values "
                "from a seeded random.Random instance",
            )
        ]
    if (
        qualified.startswith("random.")
        and qualified.split(".", 1)[1] in _GLOBAL_RNG_FNS
    ):
        return [
            Violation(
                sf.rel,
                node.lineno,
                node.col_offset,
                "determinism.global-rng",
                f"{qualified}() draws from the process-global RNG; use a "
                "seeded random.Random instance (see repro/sim/rng.py)",
            )
        ]
    return []


# ----------------------------------------------------------------------
# Unordered iteration
# ----------------------------------------------------------------------


class _SetTypes(ast.NodeVisitor):
    """Best-effort inference of set-typed names in one module.

    Records local/attribute names that are annotated or assigned a
    set/frozenset (literal, constructor, or set-typed binop).  This is
    deliberately shallow — cross-module types are out of scope; the rule
    trades recall for a near-zero false-positive rate.
    """

    def __init__(self, imports: ImportMap):
        self.imports = imports
        self.names: set[str] = set()  # "x" locals / "self.x" attributes

    def _target_key(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            return f"{target.value.id}.{target.attr}"
        return None

    def _is_set_annotation(self, annotation: ast.expr) -> bool:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("set", "frozenset") or (
            isinstance(node, ast.Attribute) and node.attr in ("Set", "FrozenSet")
        )

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        key = self._target_key(node.target)
        if key is not None and self._is_set_annotation(node.annotation):
            self.names.add(key)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if is_set_expr(node.value, self.names):
            for target in node.targets:
                key = self._target_key(target)
                if key is not None:
                    self.names.add(key)
        self.generic_visit(node)


def is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Is ``node`` statically known to evaluate to a set/frozenset?"""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left, set_names) or is_set_expr(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}" in set_names
    return False


def _check_unordered(
    sf: SourceFile, parents: dict[ast.AST, ast.AST]
) -> list[Violation]:
    inference = _SetTypes(ImportMap(sf.tree))  # type: ignore[arg-type]
    inference.visit(sf.tree)  # type: ignore[arg-type]
    set_names = inference.names
    out: list[Violation] = []

    def flag(node: ast.AST, what: str) -> None:
        out.append(
            Violation(
                sf.rel,
                node.lineno,  # type: ignore[attr-defined]
                node.col_offset,  # type: ignore[attr-defined]
                "determinism.unordered-iter",
                f"{what} iterates a set: the order is hash-randomised and "
                "can leak into wire/trace/scheduling order; iterate "
                "sorted(...) instead",
            )
        )

    for node in ast.walk(sf.tree):  # type: ignore[arg-type]
        if isinstance(node, ast.For) and is_set_expr(node.iter, set_names):
            flag(node.iter, "for statement")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            first = node.generators[0]
            if not is_set_expr(first.iter, set_names):
                continue
            if isinstance(node, ast.DictComp):
                # A dict built over a set keeps the set's order.
                flag(first.iter, "dict comprehension")
                continue
            parent = parents.get(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE
                and node in parent.args
            ):
                continue  # sorted(x for x in s) and friends are safe
            kind = "list comprehension" if isinstance(node, ast.ListComp) else (
                "generator expression"
            )
            flag(first.iter, kind)
    return out
