"""Cluster topology builders.

The paper's testbed wires each server with *two* 100 Mbit/s NICs: servers
talk to each other on one switched network and to clients on another
("servers and clients are interconnected by two separate networks").  The
final experiment of Figure 3 instead shares a single network.  Both
physical layouts are provided here.

A :class:`ClusterTopology` knows, for every process name, which NIC to use
to reach every other process — the routing is trivial (one or two
segments) but centralising it keeps the transport layer topology-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.env import SimEnv
from repro.sim.network import DEFAULT_PROPAGATION_DELAY, Network
from repro.sim.nic import FAST_ETHERNET_BPS, Nic
from repro.sim.wire import WireModel


@dataclass
class ClusterTopology:
    """Maps process names to NICs and NIC pairs to networks."""

    env: SimEnv
    networks: dict[str, Network] = field(default_factory=dict)
    #: process name -> {network name -> NIC}
    nics: dict[str, dict[str, Nic]] = field(default_factory=dict)

    def add_process(self, name: str, network_names: list[str],
                    bandwidth_bps: float = FAST_ETHERNET_BPS) -> None:
        """Give process ``name`` one NIC on each listed network."""
        if name in self.nics:
            raise ConfigurationError(f"process {name!r} already has NICs")
        self.nics[name] = {}
        for net_name in network_names:
            network = self.networks[net_name]
            nic = Nic(self.env, f"{name}@{net_name}", bandwidth_bps)
            network.attach(nic)
            self.nics[name][net_name] = nic

    def nic_for(self, process: str, peer: str) -> tuple[Nic, Nic, Network]:
        """Return ``(src_nic, dst_nic, network)`` for process -> peer.

        Picks the first network both processes are attached to, preferring
        the dedicated server network when both are servers.
        """
        mine = self.nics.get(process)
        theirs = self.nics.get(peer)
        if mine is None or theirs is None:
            raise ConfigurationError(f"unknown process in route {process!r}->{peer!r}")
        for net_name, nic in mine.items():
            if net_name in theirs:
                return nic, theirs[net_name], self.networks[net_name]
        raise ConfigurationError(f"no common network between {process!r} and {peer!r}")


def build_dual_network(
    env: SimEnv,
    server_names: list[str],
    client_names: list[str],
    bandwidth_bps: float = FAST_ETHERNET_BPS,
    wire: WireModel | None = None,
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
) -> ClusterTopology:
    """The paper's testbed: separate server-side and client-side networks.

    Servers get two NICs (one per network); clients get one NIC on the
    client network.  Inter-server traffic (the ring) therefore never
    competes with client traffic for bandwidth.
    """
    wire = wire or WireModel()
    topo = ClusterTopology(env)
    topo.networks["srv"] = Network(env, "srv", wire, propagation_delay)
    topo.networks["cli"] = Network(env, "cli", wire, propagation_delay)
    for name in server_names:
        topo.add_process(name, ["srv", "cli"], bandwidth_bps)
    for name in client_names:
        topo.add_process(name, ["cli"], bandwidth_bps)
    return topo


def build_shared_network(
    env: SimEnv,
    server_names: list[str],
    client_names: list[str],
    bandwidth_bps: float = FAST_ETHERNET_BPS,
    wire: WireModel | None = None,
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
) -> ClusterTopology:
    """Figure 3's last experiment: everyone shares one network segment."""
    wire = wire or WireModel()
    topo = ClusterTopology(env)
    topo.networks["lan"] = Network(env, "lan", wire, propagation_delay)
    for name in server_names + client_names:
        topo.add_process(name, ["lan"], bandwidth_bps)
    return topo
