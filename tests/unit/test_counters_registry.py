"""The trace-counter registry: constants and scoped helpers."""

from __future__ import annotations

import pytest

from repro.sim import counters
from repro.sim.counters import (
    NET_KINDS,
    NET_UNICASTS,
    NET_WIRE_BYTES,
    REGISTERED_COUNTERS,
    net_suffix,
    scoped,
)


def test_registered_counters_cover_every_fixed_constant():
    fixed = {
        value
        for name, value in vars(counters).items()
        if name.isupper() and isinstance(value, str) and "." in value
    }
    assert fixed == set(REGISTERED_COUNTERS)


def test_registered_names_are_dotted_and_unique():
    assert len(REGISTERED_COUNTERS) == 56
    for name in REGISTERED_COUNTERS:
        family, _, leaf = name.partition(".")
        assert family and leaf, name


def test_scoped_builds_per_network_names():
    assert scoped("lan0", NET_WIRE_BYTES) == "lan0.wire_bytes"
    assert scoped("ring", NET_UNICASTS) == "ring.unicasts"


def test_net_suffix_matches_scoped_names():
    for kind in NET_KINDS:
        assert scoped("net", kind).endswith(net_suffix(kind))


def test_unknown_scoped_kind_rejected():
    with pytest.raises(ValueError):
        scoped("lan0", "wire_byte")
    with pytest.raises(ValueError):
        net_suffix("unicast")

