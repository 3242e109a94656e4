"""The per-message records keep the frozen-dataclass contract.

``repro.records.record`` builds every wire message, session segment,
runtime effect, ``OpResult`` and ``ServerSnapshot`` as a frozen
dataclass whose ``__init__`` fills ``__dict__`` directly instead of
calling ``object.__setattr__`` once per field.  For every converted
class: the generated ``__init__`` is in place, assigning a field
raises, equality and hashing are by value within the type, and the
codec still reads every field its layout names.  The wire bytes are
pinned separately (``test_wire_golden.py``, ``coding_golden.json``).
"""

import dataclasses
import pickle
import typing
from types import MappingProxyType

import pytest

from repro.core.durable import ServerSnapshot
from repro.core.messages import (
    WIRE_LAYOUT,
    ClientRead,
    OpId,
    PendingEntry,
    PreWrite,
    ReconfigCommit,
    ReconfigToken,
    WriteAck,
)
from repro.core.tags import Tag
from repro.records import record
from repro.runtime.interface import Complete, Effect, Fail, Reply, SendTo
from repro.runtime.sim_net import OpResult
from repro.transport.codec import decode_message, encode_message
from repro.transport.reliable import Segment

#: One value of every wire kind, varied by ``n``.
_KIND_VALUES = {
    "i32": lambda n: n, "u32": lambda n: n, "i64": lambda n: n,
    "f64": lambda n: n / 4, "tag": lambda n: Tag(n, 1),
    "opt_tag": lambda n: Tag(n, 2), "op": lambda n: OpId(7, n),
    "bytes": lambda n: b"b" * n, "tail": lambda n: b"t" * n,
    "tags": lambda n: (Tag(n, 0), Tag(n + 1, 3)),
    "tags_to_end": lambda n: (Tag(n, 1),), "i32s": lambda n: (n, n + 1),
    "op_pairs": lambda n: ((n, n + 1),), "client_tags": lambda n: ((n, Tag(n, 0)),),
    "pending": lambda n: (PendingEntry(Tag(n, 0), b"p" * n, OpId(3, n)),),
}  # fmt: skip


def _message(cls, n):
    _code, fields = WIRE_LAYOUT[cls]
    return cls(**{name: _KIND_VALUES[kind](n) for name, kind in fields})


def _snapshot(n):
    return ServerSnapshot(
        server_id=n, members=(0, 1, 2), dead=(), tag=Tag(n, 0), value=b"v" * n,
        ts_seen=n, watermark=MappingProxyType({0: n}),
        completed_ops=MappingProxyType({7: n}),
        pending=(PendingEntry(Tag(n + 1, 0), b"p", OpId(7, n + 1)),),
    )


MAKERS = {
    **{cls: (lambda n, cls=cls: _message(cls, n)) for cls in WIRE_LAYOUT},
    PendingEntry: lambda n: PendingEntry(Tag(n, 0), b"v" * n, OpId(1, n)),
    Segment: lambda n: Segment(n, n + 1, ("payload", n)),
    Reply: lambda n: Reply(n, WriteAck(OpId(1, n), Tag(n, 0))),
    SendTo: lambda n: SendTo(n, ClientRead(OpId(1, n)), n / 8),
    Complete: lambda n: Complete(OpId(1, n), "read", b"v" * n, Tag(n, 0)),
    Fail: lambda n: Fail(OpId(1, n), f"reason {n}"),
    OpResult: lambda n: OpResult(OpId(1, n), "write", True, None, Tag(n, 0)),
    ServerSnapshot: _snapshot,
}
RECORDS = sorted(MAKERS, key=lambda cls: cls.__name__)
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_the_record_init_fills_the_instance_dict(cls):
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    code = cls.__init__.__code__
    assert "__dict__" in code.co_names and "__setattr__" not in code.co_names
    instance = MAKERS[cls](3)
    fields = dataclasses.fields(cls)
    assert vars(instance) == {f.name: getattr(instance, f.name) for f in fields}


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_assigning_a_field_raises(cls):
    instance = MAKERS[cls](3)
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field.name, getattr(instance, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, field.name)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality_and_hash_are_by_value_within_the_type(cls):
    a, b, other = MAKERS[cls](3), MAKERS[cls](3), MAKERS[cls](4)
    assert a is not b and a == b and a != other
    if cls is not ServerSnapshot:  # its mappings are unhashable, as before
        assert hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a


def test_equal_fields_of_two_types_are_not_equal():
    token, commit = _message(ReconfigToken, 3), _message(ReconfigCommit, 3)
    assert dataclasses.astuple(token) == dataclasses.astuple(commit)
    assert token != commit


@pytest.mark.parametrize("cls", list(WIRE_LAYOUT), ids=[c.__name__ for c in WIRE_LAYOUT])
def test_the_codec_reads_every_field_of_the_layout(cls):
    message = _message(cls, 5)
    decoded = decode_message(encode_message(message))
    assert type(decoded) is cls
    for name, _kind in WIRE_LAYOUT[cls][1]:
        assert getattr(decoded, name) == getattr(message, name), name


def test_defaults_and_default_factories_are_the_dataclass_ones():
    assert Complete(OpId(1, 2), "write") == Complete(OpId(1, 2), "write", None, None)
    assert PreWrite(Tag(1, 0), b"v", OpId(1, 1)).commits == ()
    first = ServerSnapshot(0, (0,), (), Tag.ZERO, b"", 0, {}, {}, ())
    second = ServerSnapshot(0, (0,), (), Tag.ZERO, b"", 0, {}, {}, ())
    assert first.completed_tags == {} and first.completed_tags is not second.completed_tags
    assert dataclasses.replace(first, ts_seen=4).ts_seen == 4


def test_record_refuses_what_its_init_would_skip():
    with pytest.raises(TypeError):

        @record
        class Checked:
            x: int

            def __post_init__(self):
                pass


def test_the_effect_vocabulary_is_four_records():
    """A client has one operation in flight: a request carries its
    timeout, and ``Complete``/``Fail`` end the deadline, so no timer
    effect exists."""
    assert typing.get_args(Effect) == (Reply, SendTo, Complete, Fail)
    assert [f.name for f in dataclasses.fields(SendTo)] == ["server", "message", "timeout"]
