"""Failure detection.

The paper assumes a *perfect* failure detector (P, Chandra–Toueg): in a
homogeneous cluster with fine-tuned TCP, a broken ring connection means
the peer crashed ("it is reasonable to assume that when a TCP connection
fails, the server on the other side of the connection failed").

* :mod:`repro.fd.perfect` — an oracle-backed perfect detector used by
  the simulator (crash events are known to the simulation);
* :mod:`repro.fd.heartbeat` — a heartbeat timeout tracker, usable two
  ways: as a perfect detector under the synchrony assumption (timeout
  exceeding the worst heartbeat delay, no un-suspect), or as the
  *imperfect* detector (``imperfect=True``) behind the epoch-guarded
  reconfiguration mode, where a wrong suspicion is expected, survivable
  and reversed by a late heartbeat.  Both runtimes wire it in behind
  their ``fd="heartbeat"`` option; :class:`HeartbeatConfig` holds the
  timing knobs.
"""

from repro.fd.heartbeat import HeartbeatConfig, HeartbeatTracker
from repro.fd.perfect import PerfectFailureDetector

__all__ = [
    "HeartbeatConfig",
    "HeartbeatTracker",
    "PerfectFailureDetector",
]
