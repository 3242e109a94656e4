"""codec.* — the layout table and the message catalogue stay in lockstep.

``WIRE_LAYOUT`` in ``core/messages.py`` is the wire format: sizes,
encoders and decoders are compiled from it, so they cannot disagree
with each other — but nothing in Python makes a new message class *get*
a row.  This rule checks, purely from the ASTs of ``core/messages.py``
and ``transport/reliable.py``:

* the literal table has exactly one row, with a unique type code and
  only real dataclass field names, per message class (the
  ``RingMessage``/``ClientMessage``/``ServerReply`` unions plus
  ``Heartbeat``/``LeaseGrant``/``LeaseRevoke``) — the codec asserts the
  same completeness when it is imported;
* declared byte-accounting constants match the struct formats that
  actually produce the bytes (``TAG_WIRE_BYTES`` == sizeof ``">qi"``,
  ``BASE_WIRE_BYTES`` == sizeof ``">B3xI"``, segment/batch header
  constants == their struct sizes);
* every ring message carries an ``epoch`` field (the epoch guard drops
  unstamped cross-view traffic — a ring type without the stamp would be
  rejected by every receiver after the first reconfiguration);
* the batch sentinel is the u32 maximum and data seqs start far below
  it (``_next_seq`` initialisers), so a batch container can never be
  mistaken for a data segment.
"""

from __future__ import annotations

import ast
import struct
from collections import Counter
from typing import Optional

from repro.staticheck.base import Project, Violation, project_rule

_MESSAGES = "repro/core/messages.py"
_RELIABLE = "repro/transport/reliable.py"

#: Sent outside the unions (heartbeat channel), encoded all the same.
_UNSESSIONED = ("Heartbeat", "LeaseGrant", "LeaseRevoke")

#: messages.py constant -> struct format that must produce its width.
_WIDTH_CONSTANTS = {
    "TAG_WIRE_BYTES": ">qi",
    "OP_ID_WIRE_BYTES": ">qi",
    "BASE_WIRE_BYTES": ">B3xI",
}


def _module_constants(tree: ast.Module) -> dict[str, ast.expr]:
    out: dict[str, ast.expr] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name):
            out[target.id] = node.value
    return out


def _int_value(node: Optional[ast.expr]) -> Optional[int]:
    if node is None:
        return None
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None
    return value if isinstance(value, int) else None


def _union_members(node: ast.expr) -> list[str]:
    """Class names in a ``Union[...]`` subscript or ``A | B`` chain."""
    if isinstance(node, ast.Subscript):
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        names = []
        for element in elements:
            names.extend(_union_members(element))
        return names
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _union_members(node.left) + _union_members(node.right)
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def _dataclass_fields(node: ast.ClassDef) -> set[str]:
    return {
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


@project_rule("codec")
def check(project: Project) -> list[Violation]:
    messages = project.find(_MESSAGES)
    if messages is None or messages.tree is None:
        return []
    out: list[Violation] = []

    classes: dict[str, ast.ClassDef] = {
        node.name: node
        for node in messages.tree.body
        if isinstance(node, ast.ClassDef)
    }
    constants = _module_constants(messages.tree)

    ring_members = _union_members(constants.get("RingMessage", ast.Tuple(elts=[])))
    encodable = list(
        dict.fromkeys(
            ring_members
            + _union_members(constants.get("ClientMessage", ast.Tuple(elts=[])))
            + _union_members(constants.get("ServerReply", ast.Tuple(elts=[])))
            + [name for name in _UNSESSIONED if name in classes]
        )
    )
    if not encodable:
        out.append(
            Violation(
                _MESSAGES, 1, 0, "codec.catalogue",
                "could not find the RingMessage/ClientMessage/ServerReply "
                "unions; the codec rule has nothing to check against",
            )
        )
        return out

    # -- fragment messages must ride the ring --------------------------
    # The coded backend's Fragment* messages travel server-to-server and
    # are epoch-fenced; one that is not in the RingMessage union escapes
    # the epoch-stamp and layout checks below *and* the server's
    # on_ring_message dispatch — a silent hole, not an error.
    for name, node in classes.items():
        if name.startswith("Fragment") and name not in ring_members:
            out.append(
                Violation(
                    _MESSAGES, node.lineno, node.col_offset,
                    "codec.fragment-union",
                    f"fragment message {name} is not in the RingMessage "
                    "union; it would bypass the epoch guard and the codec "
                    "coverage checks",
                )
            )

    # -- epoch stamps on ring messages ---------------------------------
    for name in ring_members:
        node = classes.get(name)
        if node is None:
            continue
        if "epoch" not in _dataclass_fields(node):
            out.append(
                Violation(
                    _MESSAGES, node.lineno, node.col_offset, "codec.epoch-stamp",
                    f"ring message {name} has no 'epoch' field; the epoch "
                    "guard will reject it after any reconfiguration",
                )
            )

    out.extend(_check_layout(constants, classes, encodable))

    # -- byte-accounting constants -------------------------------------
    for const, fmt in _WIDTH_CONSTANTS.items():
        declared = _int_value(constants.get(const))
        if declared is None:
            out.append(
                Violation(
                    _MESSAGES, 1, 0, "codec.byte-accounting",
                    f"constant {const} not found or not a literal int",
                )
            )
        elif declared != struct.calcsize(fmt):
            out.append(
                Violation(
                    _MESSAGES, 1, 0, "codec.byte-accounting",
                    f"{const} = {declared} but its wire format {fmt!r} "
                    f"packs {struct.calcsize(fmt)} bytes",
                )
            )

    out.extend(_check_reliable(project))
    return out


def _check_layout(
    constants: dict[str, ast.expr],
    classes: dict[str, ast.ClassDef],
    encodable: list[str],
) -> list[Violation]:
    """Exactly one ``WIRE_LAYOUT`` row per encodable class, with a unique
    type code and only field names the dataclass really has."""
    out: list[Violation] = []

    def flag(node: Optional[ast.AST], message: str) -> None:
        at = getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
        out.append(Violation(_MESSAGES, *at, "codec.layout", message))

    table = constants.get("WIRE_LAYOUT")
    if not isinstance(table, ast.Dict):
        flag(table, "WIRE_LAYOUT dict literal not found in core/messages.py")
        return out
    rows: Counter[str] = Counter()
    codes: dict[int, str] = {}
    for key, row in zip(table.keys, table.values):
        name = key.id if isinstance(key, ast.Name) else ""
        parts = row.elts if isinstance(row, ast.Tuple) and len(row.elts) == 2 else None
        code, fields = (_int_value(parts[0]), parts[1]) if parts else (None, None)
        if isinstance(fields, ast.Name):  # rows may share a module-level tuple
            fields = constants.get(fields.id)
        try:
            layout = {field for field, _kind in ast.literal_eval(fields)}
        except (ValueError, TypeError, SyntaxError):
            layout = None
        if not name or code is None or layout is None:
            flag(row, "row is not `Class: (code, ((field, kind), ...))`")
            continue
        rows[name] += 1
        if name not in encodable:
            flag(row, f"row for {name}, which is in no message union")
            continue
        if codes.setdefault(code, name) != name:
            flag(row, f"type code {code} assigned to both {codes[code]} and {name}")
        declared = _dataclass_fields(classes[name]) if name in classes else layout
        for field in sorted(layout - declared):
            flag(row, f"row for {name} names {field!r}, not a field of {name}")
    for name in encodable:
        if rows[name] != 1:
            flag(table, f"message class {name} has {rows[name]} WIRE_LAYOUT rows, not one")
    return out


def _struct_format(node: Optional[ast.expr]) -> Optional[str]:
    """The format string of a ``struct.Struct("...")`` initialiser."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Struct"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


def _check_reliable(project: Project) -> list[Violation]:
    reliable = project.find(_RELIABLE)
    if reliable is None or reliable.tree is None:
        return []
    out: list[Violation] = []
    constants = _module_constants(reliable.tree)

    header_fmt = _struct_format(constants.get("_SEGMENT_HEADER"))
    declared_header = _int_value(constants.get("SEGMENT_HEADER_BYTES"))
    if header_fmt is not None and declared_header is not None:
        if struct.calcsize(header_fmt) != declared_header:
            out.append(
                Violation(
                    _RELIABLE, 1, 0, "codec.byte-accounting",
                    f"SEGMENT_HEADER_BYTES = {declared_header} but "
                    f"_SEGMENT_HEADER {header_fmt!r} packs "
                    f"{struct.calcsize(header_fmt)} bytes",
                )
            )
    entry_fmt = _struct_format(constants.get("_BATCH_ENTRY"))
    declared_entry = _int_value(constants.get("BATCH_ENTRY_BYTES"))
    if entry_fmt is not None and declared_entry is not None:
        if struct.calcsize(entry_fmt) != declared_entry:
            out.append(
                Violation(
                    _RELIABLE, 1, 0, "codec.byte-accounting",
                    f"BATCH_ENTRY_BYTES = {declared_entry} but _BATCH_ENTRY "
                    f"{entry_fmt!r} packs {struct.calcsize(entry_fmt)} bytes",
                )
            )

    sentinel = _int_value(constants.get("BATCH_SENTINEL"))
    if sentinel is None:
        out.append(
            Violation(
                _RELIABLE, 1, 0, "codec.batch-sentinel",
                "BATCH_SENTINEL not found in transport/reliable.py",
            )
        )
        return out
    # The sentinel occupies a data segment's seq slot; it is safe only
    # as the u32 maximum (seqs count up from 1 and overflow the header
    # long before), and only if every _next_seq initialiser starts far
    # below it.
    if sentinel != 0xFFFFFFFF:
        out.append(
            Violation(
                _RELIABLE, 1, 0, "codec.batch-sentinel",
                f"BATCH_SENTINEL = {sentinel:#x}; it must be the u32 "
                "maximum 0xFFFFFFFF so no assignable seq collides",
            )
        )
    for node in ast.walk(reliable.tree):  # type: ignore[arg-type]
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "_next_seq"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                    and node.value.value >= sentinel
                ):
                    out.append(
                        Violation(
                            _RELIABLE, node.lineno, node.col_offset,
                            "codec.batch-sentinel",
                            f"_next_seq initialised to {node.value.value}, "
                            "at or above BATCH_SENTINEL — a data segment "
                            "would decode as a batch container",
                        )
                    )
    return out
