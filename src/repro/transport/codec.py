"""Binary codec for protocol messages, compiled from the layout table.

``repro.core.messages.WIRE_LAYOUT`` is the wire format.  At import,
:func:`compile_layout` turns each row into one specialised encoder and
one specialised decoder (source generated once, the way ``dataclasses``
writes ``__init__``): every run of fixed-width fields is a single
``struct`` call, so no field is interpreted when a message moves.  The
sizes the simulator charges are compiled from the same rows, so a run
over real sockets moves exactly the bytes a simulated one pays for.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, get_args

from repro.core.messages import (
    FIXED_KINDS,
    SEQUENCE_KINDS,
    WIRE_LAYOUT,
    Heartbeat,
    Layout,
    LeaseGrant,
    LeaseRevoke,
    Message,
    OpId,
    PendingEntry,
)
from repro.core.tags import Tag
from repro.errors import ProtocolError

#: Type code, three reserved bytes, body length.
_HEADER = struct.Struct(">B3xI")

_PAIR = "{v}[0], {v}[1]"
#: Kind -> (``pack`` arguments of a field value or sequence item ``{v}``,
#: the value rebuilt from its unpacked slots ``{0}``, ``{1}``...).
_KIND_CODE = {
    **dict.fromkeys(("i32", "u32", "i64", "f64", "i32s"), ("{v}", "{0}")),
    **dict.fromkeys(("tag", "tags", "tags_to_end"), (_PAIR, "Tag({0}, {1})")),
    "opt_tag": (
        "(ZERO if {v} is None else {v})[0], (ZERO if {v} is None else {v})[1]",
        "(None if ({0}, {1}) == ZERO else Tag({0}, {1}))",
    ),
    "op": (_PAIR, "OpId({0}, {1})"),
    "op_pairs": (_PAIR, "({0}, {1})"),
    "client_tags": ("{v}[0], {v}[1][0], {v}[1][1]", "({0}, Tag({1}, {2}))"),
    "pending": (
        "{v}.tag[0], {v}.tag[1], {v}.op[0], {v}.op[1], len({v}.value)",
        "PendingEntry(Tag({0}, {1}), bytes(_body[_o:_end]), OpId({2}, {3}))",
    ),
}
_ITEM_SLOTS = [f"_x[{i}]" for i in range(5)]

_IF_SHORT = 'if _end > len(_body): raise ProtocolError("truncated frame")'


def compile_layout(
    cls: type[Any], code: int, fields: Layout
) -> tuple[Callable[[Any], bytes], Callable[[memoryview], Any]]:
    """``(encode, decode)`` for dataclass ``cls`` laid out as ``fields``.

    ``encode`` returns the whole message, header included; ``decode``
    takes the body behind an already-checked header.  A decoder raises
    ``ProtocolError("truncated frame")`` — or ``struct.error``, which
    :func:`decode_message` reports as the same — rather than ever yield
    a field shorter than its declared length, and rejects bytes after
    the last field of a layout that has a definite end.
    """
    names = [field.name for field in dataclasses.fields(cls)]
    if sorted(names) != sorted(name for name, _ in fields):
        raise ProtocolError(f"{cls.__name__}: a layout names each field once")
    scope: dict[str, Any] = {
        "cls": cls, "Tag": Tag, "ZERO": Tag.ZERO, "OpId": OpId,
        "PendingEntry": PendingEntry, "ProtocolError": ProtocolError,
    }  # fmt: skip

    def packer(fmt: str) -> str:
        """The name of ``Struct(fmt)`` in the generated code's scope."""
        scope["_s_" + fmt] = struct.Struct(">" + fmt)
        return "_s_" + fmt

    # Encoder: ``setup`` binds each variable-width part to a local, then
    # one join of ``parts``; the header rides in the first ``pack``.
    # Decoder: ``decode`` statements read the body at ``at`` -- a literal
    # offset until a variable-width field makes it the local ``_o`` --
    # and ``values`` holds the expression for each field's result.
    setup: list[str] = []
    parts: list[str] = []
    decode: list[str] = []
    values: dict[str, str] = {}
    at = "0"
    head, run, args, slots, fixed = _HEADER.format[1:], "", [str(code), "_n"], 0, 0

    def end_run() -> None:
        nonlocal at, head, run, args, fixed
        if head or run:
            parts.append(f"{packer(head + run)}.pack({', '.join(args)})")
        if run:
            size = struct.calcsize(">" + run)
            targets = "".join(f"_a{i}, " for i in range(slots - len(run), slots))
            decode.append(f"{targets}= {packer(run)}.unpack_from(_body, {at})")
            if at == "_o":
                decode.append(f"_o += {size}")
            else:
                at = str(int(at) + size)
            fixed += size
        head, run, args = "", "", []

    for position, (name, kind) in enumerate(fields):
        if kind in FIXED_KINDS:
            fmt, (pack_args, rebuilt) = FIXED_KINDS[kind], _KIND_CODE[kind]
            args.append(pack_args.format(v=f"_m.{name}"))
            values[name] = rebuilt.format(
                *(f"_a{i}" for i in range(slots, slots + len(fmt)))
            )
            run, slots = run + fmt, slots + len(fmt)
            continue
        counted, item = SEQUENCE_KINDS[kind]
        if counted:
            args.append(f"len(_m.{name})")
            count, run, slots = f"_a{slots}", run + "I", slots + 1
        elif position != len(fields) - 1:
            raise ProtocolError(f"{cls.__name__}.{name}: {kind} must come last")
        end_run()
        part, values[name] = f"_v{len(parts)}", name
        parts.append(part)
        source = f"_body[{at}:{'_end' if counted else ''}]"
        raw, ragged = item == "s", item.endswith("s") and item != "s"
        if raw:
            setup.append(f"{part} = _m.{name}")
            width, value = 1, f"bytes({source})"
        else:
            items, (pack_args, rebuilt) = packer(item.rstrip("s")), _KIND_CODE[kind]
            width = scope[items].size
            packed = f"{items}.pack({pack_args.format(v='_x')})"
            if ragged:  # each item's own bytes follow its fixed part
                packed += " + _x.value"
            setup.append(f'{part} = b"".join([{packed} for _x in _m.{name}])')
            rebuilt = rebuilt.format(*_ITEM_SLOTS)
            value = f"tuple([{rebuilt} for _x in {items}.iter_unpack({source})])"
        if ragged:
            if at != "_o":
                decode.append(f"_o = {at}")
            decode += [
                f"{name} = []",
                f"for _ in range({count}):",
                f"    _x = {items}.unpack_from(_body, _o)",
                f"    _o += {width}",
                "    _end = _o + _x[-1]",
                "    " + _IF_SHORT,
                f"    {name}.append({rebuilt})",
                "    _o = _end",
                f"{name} = tuple({name})",
            ]
        elif counted:
            decode += [
                f"_end = {at} + {width} * {count}", _IF_SHORT,
                f"{name} = {value}", "_o = _end",
            ]  # fmt: skip
        else:
            decode.append(f"{name} = {value}")
        at = "_o" if counted else ""
    end_run()
    if at:
        decode.append(f'if len(_body) != {at}: raise ProtocolError("trailing bytes")')
    lengths = [f"len({part})" for part in parts if part.startswith("_v")]
    setup.append(f"_n = {' + '.join([str(fixed), *lengths])}")
    result = parts[0] if len(parts) == 1 else f'b"".join(({", ".join(parts)}))'
    lines = ["def encode(_m):", *setup, f"return {result}"]
    lines += ["def decode(_body):", *decode]
    lines.append(f"return cls({', '.join(values[name] for name in names)})")
    exec("\n".join(ln if ln.startswith("def ") else "    " + ln for ln in lines), scope)
    return scope["encode"], scope["decode"]


_ENCODE: dict[type, Callable[[Any], bytes]] = {}
_DECODE: dict[int, Callable[[memoryview], Any]] = {}
for _cls, (_code, _fields) in WIRE_LAYOUT.items():
    _ENCODE[_cls], _DECODE[_code] = compile_layout(_cls, _code, _fields)
if len(_DECODE) != len(WIRE_LAYOUT):
    raise ProtocolError("WIRE_LAYOUT assigns one type code to two messages")
if set(WIRE_LAYOUT) != {*get_args(Message), Heartbeat, LeaseGrant, LeaseRevoke}:
    raise ProtocolError("WIRE_LAYOUT must have one row per message class")


def encode_message(message: Any) -> bytes:
    """Serialise ``message``: the header, then the body its row lays out."""
    encoder = _ENCODE.get(type(message))
    if encoder is None:
        raise ProtocolError(f"cannot encode {type(message).__name__}")
    return encoder(message)


def decode_message(data: bytes) -> Any:
    """Inverse of :func:`encode_message`.

    Any body shorter than its fixed fields or declared length-prefixed
    fields raises ``ProtocolError("truncated frame")`` — a decoder never
    yields silently short bytes (the pre-hardening failure mode: a
    truncated reconfiguration token decoded into short values that
    round-tripped as plausible state).
    """
    if len(data) < _HEADER.size:
        raise ProtocolError(f"message too short: {len(data)} bytes")
    code, body_len = _HEADER.unpack_from(data, 0)
    decoder = _DECODE.get(code)
    if decoder is None:
        raise ProtocolError(f"unknown message type code {code}")
    body = memoryview(data)[_HEADER.size :]
    if len(body) != body_len:
        raise ProtocolError(f"length mismatch: header {body_len}, body {len(body)}")
    try:
        return decoder(body)
    except struct.error as exc:
        # A fixed-width field ran past the end of the body.
        raise ProtocolError("truncated frame") from exc
