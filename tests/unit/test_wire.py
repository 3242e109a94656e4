"""Unit tests for the wire cost model."""

import pytest

from repro.sim.wire import WireModel


def test_single_segment_message():
    wire = WireModel()
    # 1000 bytes + 32 header fits one segment: + 78 overhead.
    assert wire.wire_bytes(1000) == 1000 + 32 + 78


def test_multi_segment_message():
    wire = WireModel()
    # 4096 + 32 = 4128 app bytes -> 3 segments of 1448.
    assert wire.wire_bytes(4096) == 4096 + 32 + 3 * 78


def test_minimum_frame_applies():
    wire = WireModel()
    assert wire.wire_bytes(0) == max(84, 0 + 32 + 78)
    tiny = WireModel(app_header=0, segment_overhead=0)
    assert tiny.wire_bytes(1) == 84


def test_invalid_inputs():
    wire = WireModel()
    with pytest.raises(ValueError):
        wire.wire_bytes(-1)
