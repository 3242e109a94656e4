"""Blocking public API over a simulated cluster.

:class:`AtomicStorage` is the entry point a downstream user sees first: a
synchronous multi-writer multi-reader atomic register.  Each call drives
the cluster's discrete-event loop until the operation completes, so code
reads exactly like it would against a real storage service::

    from repro import AtomicStorage, SimCluster

    cluster = SimCluster.build(num_servers=5)
    storage = AtomicStorage.over(cluster)
    storage.write(b"v1")
    assert storage.read() == b"v1"

Multiple handles over the same cluster act as independent clients, which
is how the examples demonstrate concurrent readers/writers and failover.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import StorageUnavailableError


class AtomicStorage:
    """A synchronous client handle onto the replicated atomic register."""

    def __init__(self, cluster, client) -> None:
        self.cluster = cluster
        self.client = client

    @classmethod
    def over(cls, cluster, home_server: Optional[int] = None) -> "AtomicStorage":
        """Create a new client on ``cluster`` and wrap it.

        ``home_server`` binds the handle to a server, as the paper binds
        client machines to servers; by default the first server is used.
        """
        client = cluster.add_client(home_server=home_server)
        return cls(cluster, client)

    def write(self, value: bytes) -> None:
        """Write ``value``; returns when the write is acknowledged.

        Raises :class:`~repro.errors.StorageUnavailableError` when the
        client exhausts its retries (e.g. every server crashed).
        """
        if not isinstance(value, bytes):
            raise TypeError(f"values are bytes, got {type(value).__name__}")
        result = self.client.run_op(self.client.write, value)
        if not result.ok:
            raise StorageUnavailableError(f"write failed: {result.error}")

    def read(self) -> bytes:
        """Read the register's current value (linearizable)."""
        result = self.client.run_op(self.client.read)
        if not result.ok:
            raise StorageUnavailableError(f"read failed: {result.error}")
        return result.value
