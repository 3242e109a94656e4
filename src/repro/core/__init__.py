"""The paper's contribution: the high-throughput atomic storage algorithm.

The package is organised as sans-I/O state machines plus a thin public
facade.  Nothing here imports the simulator or a socket runtime; the
hosts that put these machines on a network live in :mod:`repro.runtime`
(the multi-register block store, the "distributed storage system" layer
the paper's introduction motivates, is :mod:`repro.runtime.sharded`,
over the placement table of :mod:`repro.core.placement`):

* :mod:`repro.core.tags` — logical timestamps ``(ts, server_id)`` ordered
  lexicographically;
* :mod:`repro.core.messages` — every client and ring message, with wire
  size accounting;
* :mod:`repro.core.fairness` — the ``nb_msg`` fair forwarding scheduler
  (pseudocode lines 53–75);
* :mod:`repro.core.ring` — ring views, successor computation and the
  crash-time adopter rule;
* :mod:`repro.core.server` — the server state machine (pseudocode lines
  11–93 plus the reconfiguration protocol);
* :mod:`repro.core.client` — the client state machine (retry on crash);
* :mod:`repro.core.storage` — the blocking public API over a simulated
  cluster.
"""

from repro.core.client import ClientProtocol
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    ClientRead,
    ClientWrite,
    Commit,
    PreWrite,
    ReadAck,
    ReconfigCommit,
    ReconfigToken,
    StateSync,
    WriteAck,
)
from repro.core.ring import RingView
from repro.core.server import ServerProtocol
from repro.core.storage import AtomicStorage
from repro.core.tags import Tag

__all__ = [
    "AtomicStorage",
    "ClientProtocol",
    "ClientRead",
    "ClientWrite",
    "Commit",
    "PreWrite",
    "ProtocolConfig",
    "ReadAck",
    "ReconfigCommit",
    "ReconfigToken",
    "RingView",
    "ServerProtocol",
    "StateSync",
    "Tag",
    "WriteAck",
]
