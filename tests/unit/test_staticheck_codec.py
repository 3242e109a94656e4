"""Red/green/pragma fixtures for the codec.* rule family.

Each fixture is a miniature trio — the message catalogue and its layout
table (messages.py) and the session constants (reliable.py) — laid out
at the real repro-relative paths, so the project rule cross-checks them
exactly as it does the committed tree.
"""

from __future__ import annotations

from tests.staticheck_helpers import rules_of, run_tree

_MESSAGES_OK = (
    "from dataclasses import dataclass\n"
    "from typing import Union\n"
    "\n"
    "TAG_WIRE_BYTES = 12\n"
    "OP_ID_WIRE_BYTES = 12\n"
    "BASE_WIRE_BYTES = 8\n"
    "\n"
    "@dataclass(frozen=True)\n"
    "class PreWrite:\n"
    "    epoch: int\n"
    "\n"
    "@dataclass(frozen=True)\n"
    "class Commit:\n"
    "    epoch: int\n"
    "\n"
    "RingMessage = Union[PreWrite, Commit]\n"
    "\n"
    "_EPOCH_ONLY = ((\"epoch\", \"i64\"),)\n"
    "WIRE_LAYOUT = {\n"
    "    PreWrite: (1, ((\"epoch\", \"i64\"),)),\n"
    "    Commit: (2, _EPOCH_ONLY),\n"
    "}\n"
)

_RELIABLE_OK = (
    "import struct\n"
    "\n"
    "SEGMENT_HEADER_BYTES = 13\n"
    "_SEGMENT_HEADER = struct.Struct('>BIII')\n"
    "BATCH_ENTRY_BYTES = 4\n"
    "_BATCH_ENTRY = struct.Struct('>I')\n"
    "BATCH_SENTINEL = 0xFFFFFFFF\n"
    "\n"
    "class Channel:\n"
    "    def __init__(self):\n"
    "        self._next_seq = 1\n"
)


def _tree(messages=_MESSAGES_OK, reliable=_RELIABLE_OK):
    return {
        "repro/core/messages.py": messages,
        "repro/transport/reliable.py": reliable,
    }


def test_conforming_trio_passes(tmp_path):
    assert run_tree(tmp_path, _tree()) == []


def test_ring_message_without_epoch_flagged(tmp_path):
    messages = _MESSAGES_OK.replace(
        "class Commit:\n    epoch: int\n", "class Commit:\n    seq: int\n"
    ).replace("_EPOCH_ONLY = ((\"epoch\"", "_EPOCH_ONLY = ((\"seq\"")
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.epoch-stamp"]
    assert "Commit" in violations[0].message


def test_fragment_class_outside_ring_union_flagged(tmp_path):
    # A Fragment* message not in the RingMessage union would silently
    # bypass the epoch guard and every codec coverage check.
    messages = _MESSAGES_OK.replace(
        "RingMessage = Union[PreWrite, Commit]\n",
        "@dataclass(frozen=True)\n"
        "class FragmentStore:\n"
        "    epoch: int\n"
        "\n"
        "RingMessage = Union[PreWrite, Commit]\n",
    )
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert "codec.fragment-union" in rules_of(violations)
    assert any("FragmentStore" in v.message for v in violations)


def test_missing_row_flagged(tmp_path):
    messages = _MESSAGES_OK.replace("    Commit: (2, _EPOCH_ONLY),\n", "")
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.layout"]
    assert "Commit has 0 WIRE_LAYOUT rows" in violations[0].message


def test_second_row_for_one_class_flagged(tmp_path):
    # A dict literal keeps the last duplicate silently; the rule does not.
    messages = _MESSAGES_OK.replace(
        "    Commit: (2, _EPOCH_ONLY),\n",
        "    Commit: (2, _EPOCH_ONLY),\n    Commit: (2, _EPOCH_ONLY),\n",
    )
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.layout"]
    assert "Commit has 2 WIRE_LAYOUT rows" in violations[0].message


def test_duplicate_type_code_flagged(tmp_path):
    messages = _MESSAGES_OK.replace("Commit: (2,", "Commit: (1,")
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.layout"]
    assert "assigned to both PreWrite and Commit" in violations[0].message


def test_row_naming_a_non_field_flagged(tmp_path):
    messages = _MESSAGES_OK.replace(
        'PreWrite: (1, (("epoch", "i64"),))',
        'PreWrite: (1, (("epoch", "i64"), ("origin", "i32")))',
    )
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.layout"]
    assert "'origin'" in violations[0].message


def test_row_for_a_class_outside_the_unions_flagged(tmp_path):
    messages = _MESSAGES_OK.replace(
        "RingMessage = Union[PreWrite, Commit]", "RingMessage = Union[PreWrite]"
    )
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.layout"]
    assert "in no message union" in violations[0].message


def test_missing_or_computed_table_flagged(tmp_path):
    messages = _MESSAGES_OK.replace("WIRE_LAYOUT = {", "WIRE_LAYOUT = dict() or {")
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.layout"]
    assert "not found" in violations[0].message


def test_width_constant_mismatch_flagged(tmp_path):
    messages = _MESSAGES_OK.replace("TAG_WIRE_BYTES = 12", "TAG_WIRE_BYTES = 16")
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert rules_of(violations) == ["codec.byte-accounting"]
    assert "TAG_WIRE_BYTES" in violations[0].message


def test_segment_header_mismatch_flagged(tmp_path):
    reliable = _RELIABLE_OK.replace(
        "SEGMENT_HEADER_BYTES = 13", "SEGMENT_HEADER_BYTES = 12"
    )
    violations = run_tree(tmp_path, _tree(reliable=reliable))
    assert rules_of(violations) == ["codec.byte-accounting"]


def test_non_maximal_sentinel_flagged(tmp_path):
    reliable = _RELIABLE_OK.replace(
        "BATCH_SENTINEL = 0xFFFFFFFF", "BATCH_SENTINEL = 0x7FFFFFFF"
    )
    violations = run_tree(tmp_path, _tree(reliable=reliable))
    assert rules_of(violations) == ["codec.batch-sentinel"]


def test_seq_initialised_at_sentinel_flagged(tmp_path):
    reliable = _RELIABLE_OK.replace(
        "self._next_seq = 1", "self._next_seq = 0xFFFFFFFF"
    )
    violations = run_tree(tmp_path, _tree(reliable=reliable))
    assert rules_of(violations) == ["codec.batch-sentinel"]
    assert "_next_seq" in violations[0].message


def test_fixture_tree_without_catalogue_is_skipped(tmp_path):
    # A tree with no core/messages.py (every per-rule fixture in this
    # suite) must not trip the codec rule.
    violations = run_tree(tmp_path, {"repro/sim/other.py": "x = 1\n"})
    assert violations == []


def test_pragma_suppresses_codec_finding(tmp_path):
    messages = _MESSAGES_OK.replace(
        "class Commit:\n    epoch: int\n",
        "# staticheck: allow(codec.epoch-stamp) -- local-only control frame,"
        " never crosses a view change\n"
        "class Commit:\n    seq: int\n",
    ).replace("_EPOCH_ONLY = ((\"epoch\"", "_EPOCH_ONLY = ((\"seq\"")
    violations = run_tree(tmp_path, _tree(messages=messages))
    assert violations == []
