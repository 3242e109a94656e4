"""writeahead.* — mutations of snapshot-covered state persist before any
reply or ring message leaves the handler.

PR 3's crash-recovery contract: a server may only expose an effect (ack
a client, forward a ring message) after the state that produced it is in
the write-ahead snapshot.  In code, every handler marks mutations with
``_mark_dirty()`` and calls ``_maybe_persist()`` before returning —
outputs only leave the protocol object via the handler's *return value*
(``drain_replies()`` / ``next_*``), so the checkable form of the
invariant is: **no public method of a durable protocol class may return
while covered state is dirty**.

The rule runs an intra-class abstract interpretation: each method gets a
summary mapping entry persistence-state (clean/dirty) to its possible
exit states, iterated to a fixpoint over the intra-class call graph
(handles the ``_next_ring_message`` recursion).  Mutation events:

* assign/augassign/delete of a covered attribute (any receiver — the
  ``restore`` classmethod builds ``proto`` instead of ``self``);
* subscript stores into covered attributes;
* mutating method calls (``pop``/``clear``/``update``/``append``/...)
  on covered attributes;
* passing a covered attribute to an intra-class helper that mutates the
  corresponding parameter (``_advance_completed``);
* any call into the value backend (``self.values.<hook>(...)``) or the
  view policy (``self.views.<hook>(...)``), which reach the register and
  the membership state through the class's own mutators;
* ``_mark_dirty()`` / ``self._dirty = True``.

Persist events: ``_maybe_persist()``, ``<durable>.save(...)``,
``self._dirty = False``.

``writeahead.host-bypass`` additionally forbids code that merely *holds*
a protocol object — hosts and runtimes (``<x>.proto``), the value
backends of ``repro/core/values.py`` and the view policies of
``repro/core/views.py`` (``<x>.core``) — from assigning its covered
attributes directly.  Hosts must go through handler methods, which
persist for themselves; a backend goes through the protocol's
``_install`` / ``_repair_stored`` and a policy through ``_reroute`` /
``_install_view`` / ``_next_nonce``, which mutate (and mark) the state
inside the class this rule's fixpoint analyses.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.staticheck.base import (
    Project,
    SourceFile,
    Violation,
    attr_chain,
    file_rule,
)

#: Attributes covered by the write-ahead snapshot (``ServerSnapshot``
#: in repro/core/durable.py): register state, completion bookkeeping,
#: the pending set, reconfiguration epoch/counter, and ring membership.
COVERED_ATTRS = frozenset(
    {
        "value",
        "tag",
        "frag_tag",
        "ts_seen",
        "watermark",
        "completed_ops",
        "completed_tags",
        "pending",
        "installed_epoch",
        "_reconfig_counter",
        "ring",
    }
)

_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: The attributes a durable class holds its value backend
#: (repro/core/values.py) and view policy (repro/core/views.py) by; see
#: :meth:`_ClassAnalysis._apply_call`.
_SEAM_ATTRS = frozenset({"values", "views"})

# Abstract persistence states.
_CLEAN = "clean"
_DIRTY = "dirty"

_IDENTITY = {_CLEAN: frozenset({_CLEAN}), _DIRTY: frozenset({_DIRTY})}


def _is_durable_class(node: ast.ClassDef) -> bool:
    """A class participates in the write-ahead discipline iff it defines
    ``_maybe_persist`` (ServerProtocol today; coded backends later)."""
    return any(
        isinstance(item, ast.FunctionDef) and item.name == "_maybe_persist"
        for item in node.body
    )


def _receiver_attr(node: ast.expr) -> Optional[str]:
    """``<receiver>.attr`` -> attr, for a one-level attribute access on a
    plain name (``self.pending``, ``proto.ring``)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr
    return None


class _MethodInfo:
    def __init__(self, node: ast.FunctionDef):
        self.node = node
        # Declaration order matters: callers match positional arguments
        # against this list to find mutated parameters.
        self.params = [arg.arg for arg in node.args.args]
        #: Parameter names this method mutates in place (dict/set/list
        #: operations on a bare parameter name).
        self.mutated_params: set[str] = set()
        for sub in ast.walk(node):
            target: Optional[ast.expr] = None
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = sub.targets if isinstance(sub, ast.Assign) else (
                    sub.targets if isinstance(sub, ast.Delete) else [sub.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript) and isinstance(
                        tgt.value, ast.Name
                    ):
                        self.mutated_params.add(tgt.value.id)
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _MUTATING_METHODS
                ):
                    self.mutated_params.add(func.value.id)
        self.mutated_params.intersection_update(self.params)


class _ClassAnalysis:
    """Fixpoint analysis of one durable class."""

    def __init__(self, node: ast.ClassDef):
        self.node = node
        self.methods: dict[str, _MethodInfo] = {
            item.name: _MethodInfo(item)
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        self.summaries: dict[str, dict[str, frozenset[str]]] = {
            name: dict(_IDENTITY) for name in self.methods
        }

    def run(self) -> None:
        changed = True
        iterations = 0
        while changed and iterations < 50:
            changed = False
            iterations += 1
            for name, info in self.methods.items():
                for entry in (_CLEAN, _DIRTY):
                    exits = self._analyze_method(info, entry)
                    if exits != self.summaries[name][entry]:
                        self.summaries[name][entry] = exits
                        changed = True

    # -- statement-level transfer --------------------------------------

    def _analyze_method(self, info: _MethodInfo, entry: str) -> frozenset[str]:
        exits: set[str] = set()
        fallthrough = self._run_body(info, info.node.body, frozenset({entry}), exits)
        exits |= fallthrough
        return frozenset(exits) or frozenset({entry})

    def _run_body(
        self,
        info: _MethodInfo,
        body: list[ast.stmt],
        states: frozenset[str],
        exits: set[str],
    ) -> frozenset[str]:
        for stmt in body:
            if not states:
                break
            states = self._run_stmt(info, stmt, states, exits)
        return states

    def _run_stmt(
        self,
        info: _MethodInfo,
        stmt: ast.stmt,
        states: frozenset[str],
        exits: set[str],
    ) -> frozenset[str]:
        if isinstance(stmt, ast.Return):
            states = self._eval_expr(info, stmt.value, states)
            exits |= states
            return frozenset()
        if isinstance(stmt, ast.Raise):
            # Exceptional exits abort the handler before outputs are
            # consumed; the runtime treats them as crashes.
            return frozenset()
        if isinstance(stmt, ast.If):
            cond = self._eval_expr(info, stmt.test, states)
            then = self._run_body(info, stmt.body, cond, exits)
            other = self._run_body(info, stmt.orelse, cond, exits)
            return then | other
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                states = self._eval_expr(info, stmt.iter, states)
            else:
                states = self._eval_expr(info, stmt.test, states)
            seen = states
            # Loop bodies run zero or more times: iterate the transfer
            # to a fixpoint (the state lattice has four elements).
            for _ in range(4):
                after = self._run_body(info, stmt.body, seen, exits)
                merged = seen | after
                if merged == seen:
                    break
                seen = merged
            return self._run_body(info, stmt.orelse, seen, exits)
        if isinstance(stmt, ast.Try):
            after_body = self._run_body(info, stmt.body, states, exits)
            # A handler may run from any point of the body: approximate
            # its entry as anything the body could have produced.
            handler_entry = states | after_body
            result = after_body
            for handler in stmt.handlers:
                result |= self._run_body(info, handler.body, handler_entry, exits)
            result = self._run_body(info, stmt.orelse, result, exits)
            return self._run_body(info, stmt.finalbody, result, exits)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                states = self._eval_expr(info, item.context_expr, states)
            return self._run_body(info, stmt.body, states, exits)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return states
        # Generic statement: walk its expressions for events, then apply
        # store effects.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                states = self._eval_expr(info, child, states)
        states = self._apply_stores(stmt, states)
        return states

    def _apply_stores(self, stmt: ast.stmt, states: frozenset[str]) -> frozenset[str]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        dirty = False
        for target in targets:
            attr = _receiver_attr(target)
            if attr == "_dirty" and isinstance(stmt, ast.Assign):
                value = stmt.value
                if isinstance(value, ast.Constant):
                    states = (
                        frozenset({_DIRTY})
                        if value.value is True
                        else frozenset({_CLEAN})
                    )
                    continue
            if attr in COVERED_ATTRS:
                dirty = True
            if isinstance(target, ast.Subscript):
                sub_attr = _receiver_attr(target.value)
                if sub_attr in COVERED_ATTRS:
                    dirty = True
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if _receiver_attr(element) in COVERED_ATTRS:
                        dirty = True
        if dirty:
            return frozenset({_DIRTY})
        return states

    def _eval_expr(
        self, info: _MethodInfo, node: Optional[ast.expr], states: frozenset[str]
    ) -> frozenset[str]:
        if node is None:
            return states
        for call in [n for n in ast.walk(node) if isinstance(n, ast.Call)]:
            states = self._apply_call(info, call, states)
        return states

    def _apply_call(
        self, info: _MethodInfo, call: ast.Call, states: frozenset[str]
    ) -> frozenset[str]:
        func = call.func
        attr = _receiver_attr(func) if isinstance(func, ast.Attribute) else None
        if attr == "_mark_dirty":
            return frozenset({_DIRTY})
        if attr == "_maybe_persist":
            return frozenset({_CLEAN})
        if attr == "save" and isinstance(func, ast.Attribute):
            chain = attr_chain(func)
            if chain is not None and "durable" in chain.split("."):
                return frozenset({_CLEAN})
        # A seam hook (``self.values.<hook>(...)``, ``self.views.<hook>(...)``)
        # may come back through ``_install`` / ``_repair_stored`` /
        # ``_note_tag`` / ``_install_view`` / ``_next_nonce``: the analysis
        # cannot see into the other class, so it assumes so.
        if (
            isinstance(func, ast.Attribute)
            and _receiver_attr(func.value) in _SEAM_ATTRS
        ):
            return frozenset({_DIRTY})
        # Mutating container method on a covered attribute:
        # self.pending.pop(...), proto.completed_ops.update(...).  The
        # receiver is a two-level chain, so check the method name on the
        # Attribute node itself (``attr`` above is None for these).
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and _receiver_attr(func.value) in COVERED_ATTRS
        ):
            return frozenset({_DIRTY})
        # Intra-class call: apply the callee's summary.
        if attr in self.summaries and isinstance(func, ast.Attribute):
            summary = self.summaries[attr]
            result: set[str] = set()
            for state in states:
                result |= summary[state]
            states = frozenset(result)
            # Covered attribute passed to a helper that mutates the
            # corresponding parameter.
            callee = self.methods[attr]  # type: ignore[index]
            params = [
                arg for arg in callee.params if arg not in ("self", "cls")
            ]
            for index, argument in enumerate(call.args):
                if index < len(params) and params[index] in callee.mutated_params:
                    if _receiver_attr(argument) in COVERED_ATTRS:
                        states = frozenset({_DIRTY})
        return states


@file_rule("writeahead")
def check(sf: SourceFile, project: Project) -> list[Violation]:
    if sf.tree is None or not sf.rel.startswith("repro/"):
        return []
    out: list[Violation] = []
    out.extend(_check_durable_classes(sf))
    out.extend(_check_host_bypass(sf))
    return out


def _check_durable_classes(sf: SourceFile) -> list[Violation]:
    out: list[Violation] = []
    for node in ast.walk(sf.tree):  # type: ignore[arg-type]
        if not isinstance(node, ast.ClassDef) or not _is_durable_class(node):
            continue
        analysis = _ClassAnalysis(node)
        analysis.run()
        for name, info in analysis.methods.items():
            if name.startswith("_"):
                continue
            exits = analysis.summaries[name][_CLEAN]
            if _DIRTY in exits:
                out.append(
                    Violation(
                        sf.rel,
                        info.node.lineno,
                        info.node.col_offset,
                        "writeahead.persist-before-output",
                        f"{node.name}.{name}() can return with unpersisted "
                        "covered state: add _maybe_persist() before every "
                        "exit that follows a mutation",
                    )
                )
    return out


#: Path prefix -> the attribute name its code holds a protocol by.
_HOLDER_SCOPES = {
    "repro/core/sharded.py": "proto",
    "repro/runtime/": "proto",
    "repro/core/values.py": "core",
    "repro/core/views.py": "core",
}


def _check_host_bypass(sf: SourceFile) -> list[Violation]:
    """Code that holds a protocol object must mutate its state only
    through the protocol's methods (which mark and persist for
    themselves), never by assigning ``<x>.proto.<covered attr>`` (or a
    backend's or policy's ``<x>.core.<covered attr>``) directly."""
    holders = {
        name for scope, name in _HOLDER_SCOPES.items() if sf.rel.startswith(scope)
    }
    if not holders:
        return []
    out: list[Violation] = []
    for node in ast.walk(sf.tree):  # type: ignore[arg-type]
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            base = target.value if isinstance(target, ast.Subscript) else target
            if not isinstance(base, ast.Attribute):
                continue
            if base.attr not in COVERED_ATTRS:
                continue
            owner = base.value
            chain = attr_chain(owner)
            if chain is not None and holders & set(chain.split(".")):
                out.append(
                    Violation(
                        sf.rel,
                        node.lineno,
                        node.col_offset,
                        "writeahead.host-bypass",
                        f"direct store to protocol covered state "
                        f"'{chain}.{base.attr}' bypasses the write-ahead "
                        "persist discipline; call a protocol method instead",
                    )
                )
    return out
