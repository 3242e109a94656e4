"""Runtimes that drive the sans-I/O protocol state machines.

Three interchangeable runtimes exist:

* :mod:`repro.runtime.sim_net` — the discrete-event cluster simulator
  (bandwidth-faithful; used for every Figure 3/4 benchmark);
* :mod:`repro.rounds.adapter` — the paper's synchronous round model
  (used for Figure 1 and the Section 4 analytical claims);
* :mod:`repro.runtime.asyncio_net` — real asyncio TCP sockets on
  localhost (a deployable implementation; used by integration tests and
  the asyncio example).

They all consume the same :mod:`repro.runtime.interface` effect
vocabulary, which is what makes the protocol code in :mod:`repro.core`
identical across the three.  The two networked runtimes also host the
same server *control plane* — failure detection, leases, view-proposal
timers, the rejoin pump — which lives once, sans-I/O, in
:mod:`repro.runtime.driver` (docs/runtime.md).
"""

from repro.runtime.interface import CancelTimer, Complete, Fail, Reply, SendTo, SetTimer

__all__ = ["CancelTimer", "Complete", "Fail", "Reply", "SendTo", "SetTimer"]
