"""Shared runtime for baseline protocols on the simulated cluster.

A baseline server is a sans-I/O object with three inputs —
``on_client_message(client, msg)``, ``on_server_message(src, msg)``,
``on_server_crash(crashed)`` — each returning a list of effects:
:class:`~repro.runtime.interface.Reply` (to a client),
:class:`PeerSend` (unicast to another server) or :class:`MulticastPeers`
(ethernet multicast to all other servers, collision-prone).

:class:`BaselineServerHost` executes those effects on the machine the
core algorithm's host runs on
(:class:`~repro.runtime.sim_net.ServerMachine`): one transmit at a time
per NIC, per-client-machine reply fairness, dual or shared topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.runtime.interface import Reply
from repro.runtime.sim_net import ServerMachine, SimCluster


@dataclass(frozen=True)
class PeerSend:
    """Unicast ``message`` to server ``dst`` over the server network."""

    dst: int
    message: Any


@dataclass(frozen=True)
class MulticastPeers:
    """Ethernet-multicast ``message`` to every other alive server."""

    message: Any


class BaselineServerHost(ServerMachine):
    """Hosts one baseline server protocol on the simulated network."""

    def __init__(self, cluster: SimCluster, server_id: int, proto):
        super().__init__(cluster, server_id, self._peer_source)
        self.proto = proto
        self.peer_queue: deque[tuple[str, Any]] = deque()

    # -- inbound ---------------------------------------------------------

    def receive_client(self, client_id: int, message) -> None:
        if not self.alive:
            return
        self._post(self.proto.on_client_message(client_id, message))

    def receive_server(self, src: int, message) -> None:
        if not self.alive:
            return
        self._post(self.proto.on_server_message(src, message))

    def receive_ring(self, message, sender=None) -> None:
        """Server-to-server traffic off the simulated links."""
        self.receive_server(sender, message)

    def notify_crash(self, crashed_id: int) -> None:
        if not self.alive:
            return
        handler = getattr(self.proto, "on_server_crash", None)
        if handler is not None:
            self._post(handler(crashed_id))

    # -- outbound --------------------------------------------------------

    def _peer_source(self):
        if not self.peer_queue:
            return None
        return (*self.peer_queue.popleft(), "srv")

    def _post(self, effects) -> None:
        replies = []
        for effect in effects:
            if isinstance(effect, Reply):
                replies.append(effect)
            elif isinstance(effect, PeerSend):
                self.peer_queue.append((f"s{effect.dst}", effect.message))
            elif isinstance(effect, MulticastPeers):
                self.cluster.multicast_servers(self, effect.message)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown baseline effect {effect!r}")
        self.post(replies)


def build_baseline_cluster(proto_factory, num_servers: int, **kwargs) -> SimCluster:
    """Build a :class:`SimCluster` whose servers run a baseline protocol.

    ``proto_factory(server_id, num_servers, initial_value)`` builds each
    server's protocol object.
    """

    def host_factory(cluster: SimCluster, server_id: int) -> BaselineServerHost:
        proto = proto_factory(
            server_id, cluster.config.num_servers, cluster.config.initial_value
        )
        return BaselineServerHost(cluster, server_id, proto)

    return SimCluster.build(num_servers=num_servers, host_factory=host_factory, **kwargs)
