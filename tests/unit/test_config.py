"""Unit tests for configuration validation."""

import dataclasses

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.runtime.sim_net import ClusterConfig
from repro.workload.generator import WorkloadSpec


def test_protocol_defaults_valid():
    config = ProtocolConfig().validate()
    assert config.piggyback_commits and config.fair_forwarding


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_max_messages": 0},
        {"client_timeout": 0},
        {"client_max_retries": -1},
    ],
)
def test_protocol_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        ProtocolConfig(**kwargs).validate()


def test_protocol_config_has_ten_fields():
    assert len(dataclasses.fields(ProtocolConfig)) == 10
    assert len(dataclasses.fields(ClusterConfig)) == 8


CODED = {"value_coding": "coded", "coding_k": 2, "coding_n": 4}


@pytest.mark.parametrize(
    "fd, given, elastic",
    [
        ("perfect", {}, False),
        ("perfect", {}, True),  # the only elastic row
        ("heartbeat", {}, False),
        ("heartbeat", {"view_quorum": True}, False),
        ("heartbeat", {"view_quorum": True, "read_leases": True}, False),
        ("heartbeat", {"view_quorum": True, **CODED}, False),
        ("heartbeat", {"view_quorum": True, "read_leases": True, **CODED}, False),
        # Heartbeat *forces* quorum views, so what leans on them needs no flag.
        ("heartbeat", {"read_leases": True}, False),
        ("heartbeat", CODED, False),
    ],
)
def test_for_detector_accepts_every_valid_row(fd, given, elastic):
    config = ProtocolConfig(**given).for_detector(fd, elastic=elastic)
    assert config.view_quorum == (fd == "heartbeat"), "the detector decides"
    assert config == dataclasses.replace(
        ProtocolConfig(**given), view_quorum=config.view_quorum
    ), "nothing else changes"


@pytest.mark.parametrize(
    "fd, given, elastic",
    [
        ("gossip", {}, False),  # unknown detector
        ("perfect", {"view_quorum": True}, False),  # nothing would propose
        ("perfect", {"view_quorum": True, "read_leases": True}, False),
        ("perfect", {"read_leases": True}, False),  # leases need quorum views
        ("perfect", CODED, False),  # coding needs quorum views
        ("perfect", {"view_quorum": True, **CODED}, False),
        ("heartbeat", {}, True),  # elastic handoff assumes crash facts
        ("perfect", {"view_quorum": True, **CODED}, True),
        ("heartbeat", {"client_timeout": 0}, False),  # validates what it returns
    ],
)
def test_for_detector_rejects_every_other_combination(fd, given, elastic):
    with pytest.raises(ConfigurationError):
        ProtocolConfig(**given).for_detector(fd, elastic=elastic)


def test_both_runtimes_and_the_elastic_builder_apply_the_one_rule():
    from repro.runtime.sharded import build_elastic_cluster
    from repro.runtime.asyncio_net import AsyncCluster

    assert ClusterConfig(num_servers=3, fd="heartbeat").validate().protocol.view_quorum
    assert AsyncCluster(3, fd="heartbeat").config.view_quorum
    quorum = ProtocolConfig(view_quorum=True)
    for build in (
        lambda: ClusterConfig(num_servers=3, fd="gossip").validate(),
        lambda: ClusterConfig(num_servers=3, protocol=quorum).validate(),
        lambda: AsyncCluster(3, fd="gossip"),
        lambda: AsyncCluster(3, config=quorum),
        lambda: build_elastic_cluster(4, 2, [(0, 1), (2, 3)], fd="heartbeat"),
        lambda: build_elastic_cluster(
            4, 2, [(0, 1), (2, 3)], protocol=ProtocolConfig(view_quorum=True, **CODED)
        ),
    ):
        with pytest.raises(ConfigurationError):
            build()


def test_cluster_config_validation():
    ClusterConfig(num_servers=2).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(num_servers=0).validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(num_servers=2, topology="mesh").validate()
    with pytest.raises(ConfigurationError):
        ClusterConfig(num_servers=2, detection_delay=0).validate()


def test_workload_spec_validation():
    WorkloadSpec().validate()
    with pytest.raises(ConfigurationError):
        WorkloadSpec(reader_machines_per_server=-1).validate()
    with pytest.raises(ConfigurationError):
        WorkloadSpec(reader_concurrency=0).validate()
    with pytest.raises(ConfigurationError):
        WorkloadSpec(value_size=4).validate()


def test_value_coding_validation():
    ProtocolConfig(
        value_coding="coded", coding_k=2, coding_n=4, view_quorum=True
    ).validate()
    with pytest.raises(ConfigurationError, match="value_coding"):
        ProtocolConfig(value_coding="striped").validate()
    # Coded mode leans on quorum-installed views for its >= k liveness.
    with pytest.raises(ConfigurationError, match="view_quorum"):
        ProtocolConfig(value_coding="coded", coding_k=2, coding_n=4).validate()
    with pytest.raises(ConfigurationError, match="coding_k"):
        ProtocolConfig(
            value_coding="coded", coding_k=0, coding_n=4, view_quorum=True
        ).validate()
    with pytest.raises(ConfigurationError, match="coding_k"):
        ProtocolConfig(
            value_coding="coded", coding_k=5, coding_n=4, view_quorum=True
        ).validate()
    # n - f >= k liveness bound: k=3 of n=4 breaks with one crash.
    with pytest.raises(ConfigurationError, match="liveness"):
        ProtocolConfig(
            value_coding="coded", coding_k=4, coding_n=5, view_quorum=True
        ).validate()
    # Replicated mode ignores the coding knobs entirely.
    ProtocolConfig(value_coding="replicated", coding_k=99, coding_n=1).validate()
